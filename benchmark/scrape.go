package main

import (
	"bufio"
	"fmt"
	"net/http"
	"strconv"
	"strings"
)

// metricsPage is one scrape of a server's /metrics: series text
// (`name{labels}` exactly as exposed) → value. The page is read from
// outside the process with this file's own parser.
type metricsPage map[string]float64

func scrape(base string) (metricsPage, error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		return nil, fmt.Errorf("GET /metrics: status %d", resp.StatusCode)
	}
	page := metricsPage{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		at := strings.LastIndexByte(line, ' ')
		if at < 0 {
			return nil, fmt.Errorf("/metrics line without a value: %q", line)
		}
		v, err := strconv.ParseFloat(line[at+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("/metrics line %q: %w", line, err)
		}
		page[line[:at]] = v
	}
	return page, sc.Err()
}

// delta is after − before for one series; a series absent from a page
// reads as 0, which is how the server exposes a stage it never ran.
func delta(before, after metricsPage, series string) float64 {
	return after[series] - before[series]
}

// sumDelta adds the deltas of every series of one family, whatever its
// labels — `v2v_admission_shed_total` over all classes, say.
func sumDelta(before, after metricsPage, family string) float64 {
	var sum float64
	for series, v := range after {
		if series == family || strings.HasPrefix(series, family+"{") {
			sum += v - before[series]
		}
	}
	return sum
}
