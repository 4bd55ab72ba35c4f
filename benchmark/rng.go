package main

import "math"

// rng is the benchmark's own generator (xoshiro256** seeded through
// splitmix64), so that no fixture or query order depends on a repo
// package a later change may edit.
type rng struct{ s [4]uint64 }

func newRNG(seed uint64) *rng {
	r := &rng{}
	for i := range r.s {
		seed += 0x9e3779b97f4a7c15
		z := seed
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
	return r
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

func (r *rng) Uint64() uint64 {
	s := &r.s
	out := rotl(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return out
}

// Intn returns a uniform integer in [0, n). The modulo bias is below
// 2^-40 for every n the benchmark uses.
func (r *rng) Intn(n int) int { return int(r.Uint64() % uint64(n)) }

// Float64 returns a uniform value in [0, 1).
func (r *rng) Float64() float64 { return float64(r.Uint64()>>11) / (1 << 53) }

// Norm returns a standard normal deviate (Marsaglia polar method).
func (r *rng) Norm() float64 {
	for {
		u, v := 2*r.Float64()-1, 2*r.Float64()-1
		if s := u*u + v*v; s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// Perm returns a uniform permutation of 0..n-1.
func (r *rng) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}
