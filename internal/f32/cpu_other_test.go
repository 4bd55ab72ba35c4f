//go:build !amd64 || purego

package f32

// kernelEncodings is the one set of kernels this build has: the
// portable one.
func kernelEncodings() []encoding {
	return []encoding{{name: "portable", i8: "generic", supported: true, use: func() func() { return func() {} }}}
}
