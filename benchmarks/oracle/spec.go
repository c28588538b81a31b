package oracle

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"
)

var (
	commentRE = regexp.MustCompile(`--[^\n]*`)
	windowRE  = regexp.MustCompile(`(?i)\bWINDOW\s+(\d+)\s*(us|ms|s|min)\b`)
	whereRE   = regexp.MustCompile(`(?i)\b([AB])\.value\s*>=\s*([0-9.]+)`)
	unitMicro = map[string]int64{"us": 1, "ms": 1e3, "s": 1e6, "min": 6e7}
)

// ParseQueries reads the query windows and value thresholds out of a SliceQL
// workload file with its own few lines of pattern matching, so the oracle's
// view of the queries does not pass through the parser and binder under test.
// It understands exactly what the benchmark's workload files use: streams
// named A and B, integer WINDOW literals, "value >= x" selections, and
// statements in ascending window order (the engine sorts queries into that
// order, and query ids are positions in it).
func ParseQueries(src string) ([]Query, error) {
	var out []Query
	for _, stmt := range strings.Split(commentRE.ReplaceAllString(src, ""), ";") {
		if strings.TrimSpace(stmt) == "" {
			continue
		}
		w := windowRE.FindStringSubmatch(stmt)
		if w == nil {
			return nil, fmt.Errorf("oracle: statement %d has no WINDOW <n> <unit> clause", len(out)+1)
		}
		n, err := strconv.ParseInt(w[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("oracle: statement %d: %w", len(out)+1, err)
		}
		q := Query{Window: n * unitMicro[strings.ToLower(w[2])], To: Forever}
		for _, m := range whereRE.FindAllStringSubmatch(stmt, -1) {
			x, err := strconv.ParseFloat(m[2], 64)
			if err != nil {
				return nil, fmt.Errorf("oracle: statement %d: %w", len(out)+1, err)
			}
			if strings.EqualFold(m[1], "A") {
				q.MinA = x
			} else {
				q.MinB = x
			}
		}
		if len(out) > 0 && q.Window <= out[len(out)-1].Window {
			return nil, fmt.Errorf("oracle: statement %d: windows must be strictly ascending", len(out)+1)
		}
		out = append(out, q)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("oracle: no statements")
	}
	return out, nil
}
