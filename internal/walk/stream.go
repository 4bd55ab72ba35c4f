package walk

import (
	"fmt"
	"iter"
	"runtime"
	"sync"

	"v2v/internal/graph"
	"v2v/internal/xrand"
)

// A WalkSeq producer hands its reader batches of batchWalks walks and
// runs at most batchDepth batches ahead, so one reader's buffers hold
// batchDepth x batchWalks x Length tokens however many walks it reads.
// Two batches let the producer fill one while the reader drains the
// other; 64 walks make the handoff rare next to the walking.
const (
	batchWalks = 64
	batchDepth = 2
)

// Stream is the walks of a graph under a Config, never stored: walk i
// is re-derived from its own RNG stream (Seed, i) each time it is read,
// so every read of it — by WalkSeq, Counts or Materialize, from any
// shard — has the same tokens, whatever Workers is. It is the input
// word2vec.Train consumes, and what lets the pipeline run the paper's
// walk budgets: memory is bounded by the readers' buffers instead of
// the total token count.
type Stream struct {
	g        *graph.Graph
	cfg      Config
	numWalks int

	aliases []*AliasTable // per-vertex, weighted strategies only
	tAdj    [][]int       // temporal: neighbours sorted by edge time
	tTimes  [][]int64     // temporal: matching sorted times

	countOnce sync.Once
	counts    []int // per-vertex occurrences over the whole corpus
	total     int64 // total tokens over the whole corpus
}

// NumWalks returns the number of walks the stream produces.
func (s *Stream) NumWalks() int { return s.numWalks }

// NumTokens returns the exact total number of vertex occurrences over
// all walks. The first call runs the counting pass (one full walk
// sweep that discards tokens); subsequent calls are free.
func (s *Stream) NumTokens() int {
	s.count()
	return int(s.total)
}

// Counts returns the exact number of occurrences of each vertex, the
// distribution the word2vec negative-sampling table is built from. It
// shares the counting pass with NumTokens. An error is returned when
// the corpus contains a token outside [0, vocab).
func (s *Stream) Counts(vocab int) ([]int, error) {
	s.count()
	if vocab >= len(s.counts) {
		out := make([]int, vocab)
		copy(out, s.counts)
		return out, nil
	}
	for v := vocab; v < len(s.counts); v++ {
		if s.counts[v] > 0 {
			return nil, fmt.Errorf("walk: token %d out of vocab [0,%d)", v, vocab)
		}
	}
	return append([]int(nil), s.counts[:vocab]...), nil
}

// count runs the one-off counting pass: one sharded walk sweep that
// keeps only per-vertex counts, so it costs a sweep of CPU but
// O(vertices) memory.
func (s *Stream) count() {
	s.countOnce.Do(func() {
		s.counts = make([]int, s.g.NumVertices())
		shards := sweep(s, func(lo, hi int) []int {
			counts := make([]int, len(s.counts))
			s.walks(lo, hi, func(w []int32) bool {
				for _, tok := range w {
					counts[tok]++
				}
				return true
			})
			return counts
		})
		for _, counts := range shards {
			for v, c := range counts {
				s.counts[v] += c
				s.total += int64(c)
			}
		}
	})
}

// Materialize generates every walk and stores them as a Corpus, for
// callers that need random access or a file (the paper's Figure 9
// protocol saves its walks). Contiguous shards of walk IDs are
// generated on Workers goroutines and stitched in walk-ID order.
func (s *Stream) Materialize() *Corpus {
	shards := sweep(s, func(lo, hi int) *Corpus {
		c := &Corpus{
			Tokens:  make([]int32, 0, (hi-lo)*min(s.cfg.Length, 64)),
			Offsets: make([]int, 1, hi-lo+1),
		}
		s.walks(lo, hi, func(w []int32) bool {
			c.Tokens = append(c.Tokens, w...)
			c.Offsets = append(c.Offsets, len(c.Tokens))
			return true
		})
		return c
	})
	total := 0
	for _, sh := range shards {
		total += sh.NumTokens()
	}
	c := &Corpus{Tokens: make([]int32, 0, total), Offsets: make([]int, 1, s.numWalks+1)}
	for _, sh := range shards {
		base := len(c.Tokens)
		c.Tokens = append(c.Tokens, sh.Tokens...)
		for _, off := range sh.Offsets[1:] {
			c.Offsets = append(c.Offsets, base+off)
		}
	}
	return c
}

// sweep splits the walk IDs into contiguous shards, one per worker
// (Workers, GOMAXPROCS by default, at most one per walk), runs fn on
// each in its own goroutine and returns their results in shard order.
func sweep[T any](s *Stream, fn func(lo, hi int) T) []T {
	workers := s.cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	out := make([]T, min(workers, s.numWalks))
	var wg sync.WaitGroup
	for w := range out {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[w] = fn(w*s.numWalks/len(out), (w+1)*s.numWalks/len(out))
		}()
	}
	wg.Wait()
	return out
}

// walks is the one per-walk loop: it generates walks lo..hi-1 in
// walk-ID order and passes each to yield until yield returns false.
// Walk id starts at vertex id/WalksPerVertex and draws from its own RNG
// stream (Seed, id). The slice yield receives is reused for the next
// walk.
func (s *Stream) walks(lo, hi int, yield func([]int32) bool) {
	scratch := make([]int32, s.cfg.Length)
	var rng xrand.RNG
	for id := lo; id < hi; id++ {
		rng.SeedStream(s.cfg.Seed, uint64(id))
		if !yield(scratch[:s.walkFrom(id/s.cfg.WalksPerVertex, &rng, scratch)]) {
			return
		}
	}
}

// batch is one producer buffer: a flat token block plus the lengths of
// the walks packed into it.
type batch struct {
	tokens []int32
	lens   []int
}

// WalkSeq returns an iterator over walks [lo, hi) in walk-ID order.
// Walks are generated by a producer goroutine that runs ahead of the
// consumer by at most batchDepth batches of batchWalks walks, so a
// shard's buffer memory is bounded regardless of hi-lo. The yielded
// slice is only valid until the next iteration step. Breaking out of
// the loop stops the producer; the iterator may be re-opened any
// number of times (each epoch of training re-derives the same walks).
func (s *Stream) WalkSeq(lo, hi int) iter.Seq[[]int32] {
	return func(yield func([]int32) bool) {
		lo, hi := max(lo, 0), min(hi, s.numWalks)
		if lo >= hi {
			return
		}
		free := make(chan *batch, batchDepth)
		filled := make(chan *batch, batchDepth)
		stop := make(chan struct{})
		for i := 0; i < batchDepth; i++ {
			free <- &batch{
				tokens: make([]int32, 0, batchWalks*s.cfg.Length),
				lens:   make([]int, 0, batchWalks),
			}
		}

		go func() {
			defer close(filled)
			var buf *batch
			s.walks(lo, hi, func(w []int32) bool {
				if buf == nil {
					select {
					case buf = <-free:
					case <-stop:
						return false
					}
					buf.tokens, buf.lens = buf.tokens[:0], buf.lens[:0]
				}
				buf.tokens = append(buf.tokens, w...)
				buf.lens = append(buf.lens, len(w))
				if len(buf.lens) < batchWalks {
					return true
				}
				select {
				case filled <- buf:
					buf = nil
					return true
				case <-stop:
					return false
				}
			})
			if buf != nil {
				select {
				case filled <- buf:
				case <-stop:
				}
			}
		}()
		defer close(stop)

		for buf := range filled {
			off := 0
			for _, l := range buf.lens {
				if !yield(buf.tokens[off : off+l]) {
					return
				}
				off += l
			}
			// Never blocks: at most batchDepth buffers circulate and
			// free has capacity batchDepth.
			free <- buf
		}
	}
}
