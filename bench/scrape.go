package bench

import (
	"bufio"
	"context"
	"fmt"
	"net/http"
	"strconv"
	"strings"
)

// Metrics is one parsed Prometheus text exposition: series name with its
// label set, exactly as exposed (`name{k="v",…}`), to value.
type Metrics map[string]float64

// ParseMetrics reads the text exposition format.
func ParseMetrics(text string) (Metrics, error) {
	m := Metrics{}
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		// The value follows the last space; label values may hold spaces
		// ("POST /api/v1/ops").
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("metrics: malformed line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: malformed value in %q", line)
		}
		// Histogram buckets are exposed sparsely (only where the count
		// steps), so two scrapes cannot be subtracted bucket by bucket;
		// the benchmark reads histograms through _sum and _count alone.
		if strings.HasSuffix(seriesName(line[:i]), "_bucket") {
			continue
		}
		m[line[:i]] = v
	}
	return m, sc.Err()
}

// Scrape fetches and parses base/metrics.
func Scrape(ctx context.Context, hc *http.Client, base string) (Metrics, error) {
	body, _, err := send(ctx, hc, base, http.MethodGet, "/metrics", nil, "")
	if err != nil {
		return nil, fmt.Errorf("scrape %s: %w", base, err)
	}
	return ParseMetrics(string(body))
}

// Sub returns m − before, series by series (counters and histogram
// sums/counts are cumulative, so the difference is what the run added).
func (m Metrics) Sub(before Metrics) Metrics {
	out := make(Metrics, len(m))
	for k, v := range m {
		out[k] = v - before[k]
	}
	return out
}

// Add sums other into m (several processes into one view).
func (m Metrics) Add(other Metrics) {
	for k, v := range other {
		m[k] += v
	}
}

// Sum adds up every series called name whose label set contains all of
// the given `k="v"` fragments.
func (m Metrics) Sum(name string, labels ...string) float64 {
	var sum float64
	for k, v := range m {
		if seriesName(k) == name && hasLabels(k, labels) {
			sum += v
		}
	}
	return sum
}

func seriesName(series string) string {
	if i := strings.IndexByte(series, '{'); i >= 0 {
		return series[:i]
	}
	return series
}

func hasLabels(series string, labels []string) bool {
	for _, l := range labels {
		if !strings.Contains(series, l) {
			return false
		}
	}
	return true
}

// Ratio is a/(a+b), or 0 when nothing was counted.
func Ratio(a, b float64) float64 {
	if a+b == 0 {
		return 0
	}
	return a / (a + b)
}

// HistMean is the mean observation of histogram name in seconds.
func (m Metrics) HistMean(name string, labels ...string) float64 {
	n := m.Sum(name+"_count", labels...)
	if n == 0 {
		return 0
	}
	return m.Sum(name+"_sum", labels...) / n
}
