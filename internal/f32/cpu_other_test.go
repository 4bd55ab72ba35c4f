//go:build !amd64 || purego

package f32

// dotRowsEncodings is the one DotRows this build has: the portable one.
func dotRowsEncodings() []encoding {
	return []encoding{{name: "portable", supported: true, use: func() func() { return func() {} }}}
}
