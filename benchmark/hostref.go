package main

import (
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// hostRef measures how fast this host is right now, with work that has
// nothing of the program under test in it: round trips of a fixed
// message over loopback TCP between goroutines of this process, on as
// many connections as the load generator keeps open.
//
// The box is a small guest on a shared host whose speed drifts by a
// third over minutes. The drift reaches a server workload mostly
// through the kernel's loopback path, wake-ups and the memory system,
// and this loop runs on the same three, so that its rate, sampled for
// a few tens of milliseconds on both sides of every slice of a window,
// follows the slice's throughput closely (r = 0.9 and more over ten
// slices on serve_hot, serve_sharded and pipeline; an arithmetic loop
// reached 0.4–0.9). Dividing the one by the other takes the host's
// weather out of the reported throughput and leaves the program's part.
type hostRef struct {
	ln    net.Listener
	conns []net.Conn
}

const (
	// refNominal is the host speed reported throughput is stated at, in
	// reference round trips per second: the loop's median on the box the
	// baseline was taken on, so that there a reported throughput and a
	// raw one read about the same.
	refNominal = 125000.0
	refSample  = 120 * time.Millisecond // one reading; a single one is good to about 7%
	refMessage = 300                    // bytes each way, about a /v1/neighbors answer's size class
)

func newHostRef(conns int) (*hostRef, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	h := &hostRef{ln: ln}
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				buf := make([]byte, refMessage)
				for {
					if _, err := io.ReadFull(c, buf); err != nil {
						return
					}
					if _, err := c.Write(buf); err != nil {
						return
					}
				}
			}()
		}
	}()
	for i := 0; i < conns; i++ {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			h.close()
			return nil, err
		}
		h.conns = append(h.conns, c)
	}
	return h, nil
}

// sample runs the loop on every connection for d and returns round
// trips per second.
func (h *hostRef) sample(d time.Duration) (float64, error) {
	var (
		wg     sync.WaitGroup
		counts = make([]int, len(h.conns))
		errs   = make([]error, len(h.conns))
	)
	start := time.Now()
	until := start.Add(d)
	for i, c := range h.conns {
		wg.Add(1)
		go func(i int, c net.Conn) {
			defer wg.Done()
			buf := make([]byte, refMessage)
			for time.Now().Before(until) {
				if _, err := c.Write(buf); err != nil {
					errs[i] = err
					return
				}
				if _, err := io.ReadFull(c, buf); err != nil {
					errs[i] = err
					return
				}
				counts[i]++
			}
		}(i, c)
	}
	wg.Wait()
	took := time.Since(start).Seconds()
	total := 0
	for i, n := range counts {
		if errs[i] != nil {
			return 0, fmt.Errorf("host reference loop: %w", errs[i])
		}
		total += n
	}
	if total == 0 {
		return 0, fmt.Errorf("host reference loop finished no round trip in %v", d)
	}
	return float64(total) / took, nil
}

func (h *hostRef) close() {
	for _, c := range h.conns {
		c.Close()
	}
	h.ln.Close()
}

// secondsAtNominalSpeed restates a time measured while the host ran the
// reference loop at host. The fixed seconds of it, a warm-up of set
// length, pass at the same pace on any host and are left as they are.
func secondsAtNominalSpeed(s, fixed, host float64) float64 {
	return fixed + (s-fixed)*host/refNominal
}

// atNominalSpeed restates rates, each measured while the host ran the
// reference loop at host[i], at refNominal: the rates the program would
// show on a host that ran the loop at refNominal throughout.
func atNominalSpeed(rates, host []float64) []float64 {
	scaled := make([]float64, len(rates))
	for i, r := range rates {
		scaled[i] = r * refNominal / host[i]
	}
	return scaled
}
