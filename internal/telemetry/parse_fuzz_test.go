package telemetry

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

// writtenPage renders the page an input must round-trip: a counter and
// a gauge whose values are the bits of the input's first two 8-byte
// words (NaN and the infinities included), and a histogram family of
// two series, one observing every later word as nanoseconds and one
// empty.
func writtenPage(data []byte) []byte {
	word := func(i int) uint64 {
		var b [8]byte
		copy(b[:], data[min(len(data), 8*i):])
		return binary.LittleEndian.Uint64(b[:])
	}
	h := NewHistogram()
	for i := 2; 8*i < len(data); i++ {
		h.ObserveNs(word(i))
	}
	var buf bytes.Buffer
	w := NewExpoWriter(&buf)
	w.CounterFamily("v2v_requests_total", "Requests served.",
		Sample{Labels: `endpoint="neighbors"`, Value: math.Float64frombits(word(0))},
		Sample{Labels: `endpoint="stats"`, Value: 2})
	w.GaugeFamily("v2v_generation", "Current model generation.", Sample{Value: math.Float64frombits(word(1))})
	w.HistogramFamily("v2v_stage_seconds", "Stage latency.",
		HistSeries{Labels: `endpoint="neighbors",stage="parse"`, Snap: h.Snapshot()},
		HistSeries{Snap: NewHistogram().Snapshot()})
	return buf.Bytes()
}

// FuzzParseExposition feeds the /metrics parser arbitrary pages, seeded
// with pages ExpoWriter renders and with TestParserRejectsMalformed's:
// neither ParseExposition nor Validate may panic on any input. Every
// input also renders a page through ExpoWriter (writtenPage), and that
// page must parse and validate.
func FuzzParseExposition(f *testing.F) {
	var obs []byte
	for _, ns := range []uint64{0, 255, 1_000, 50_000_000, 61e9, math.MaxUint64} {
		obs = binary.LittleEndian.AppendUint64(obs, ns)
	}
	inf := binary.LittleEndian.AppendUint64(nil, math.Float64bits(math.Inf(1)))
	nan := binary.LittleEndian.AppendUint64(nil, math.Float64bits(math.NaN()))
	for _, data := range [][]byte{nil, append(append(inf, nan...), obs...)} {
		f.Add(data)
		f.Add(writtenPage(data))
	}
	for _, page := range []string{
		"# TYPE a counter\na 1\na 1\n",
		"# TYPE a counter\na{x=\"1\" 5\n",
		"# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 6\n",
		"# TYPE h histogram\nh_bucket{x=\"a,b\",le=\"+Inf\"} 7\nh_sum{x=\"a,b\"} 1.5\nh_count{x=\"a,b\"} 7\n",
	} {
		f.Add([]byte(page))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if e, err := ParseExposition(data); err == nil {
			e.Validate()
		}
		page := writtenPage(data)
		e, err := ParseExposition(page)
		if err != nil {
			t.Fatalf("ExpoWriter's page does not parse: %v\n%s", err, page)
		}
		if err := e.Validate(); err != nil {
			t.Fatalf("ExpoWriter's page does not validate: %v\n%s", err, page)
		}
	})
}
