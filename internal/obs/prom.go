package obs

// Prometheus text exposition (version 0.0.4) over a Snapshot, with one
// repo-specific extension: families are written deterministic-first, then
// a marker comment, then the wall-clock families. Prometheus scrapers
// ignore comments, so the split costs nothing operationally — but it lets
// the determinism tests (and `distlapd -selftest`) cut the exposition at
// the marker and byte-compare the deterministic section across daemons,
// the same gating discipline simtrace JSONL and BENCH metrics live under.
//
// Byte stability: families sort by name, series by label value, floats
// format via strconv.FormatFloat(v, 'g', -1, 64) (shortest round-trip
// form, like simtrace gauges), so identical snapshots marshal to identical
// bytes.

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// WallClockMarker separates the deterministic exposition section from the
// wall-clock one. Everything above the marker must be byte-identical
// across daemons serving the same request sequence; everything below may
// not (latency, uptime).
const WallClockMarker = "# --- wall-clock section: values below vary with real time and are not determinism-gated ---"

// WriteProm writes the snapshot in Prometheus text exposition format:
// deterministic families first, then WallClockMarker, then the rest. The
// marker is written even when one side is empty, so consumers can always
// split on it.
func WriteProm(w io.Writer, snap Snapshot) error {
	for _, f := range snap.Families {
		if f.Deterministic {
			if err := writeFamily(w, f); err != nil {
				return err
			}
		}
	}
	if _, err := io.WriteString(w, WallClockMarker+"\n"); err != nil {
		return err
	}
	for _, f := range snap.Families {
		if !f.Deterministic {
			if err := writeFamily(w, f); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeFamily(w io.Writer, f FamilySnapshot) error {
	if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.Name, f.Help, f.Name, f.Kind); err != nil {
		return err
	}
	for _, s := range f.Series {
		var err error
		if f.Kind == KindHistogram {
			err = writeHistogramSeries(w, f, s)
		} else {
			_, err = fmt.Fprintf(w, "%s%s %d\n", f.Name, labelPart(f.LabelKey, s.LabelValue, "", ""), s.Value)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// writeHistogramSeries emits the cumulative le-labeled buckets plus the
// _sum and _count conventions.
func writeHistogramSeries(w io.Writer, f FamilySnapshot, s SeriesSnapshot) error {
	var cum int64
	for i, c := range s.Counts {
		cum += c
		le := "+Inf"
		if i < len(s.Bounds) {
			le = formatFloat(s.Bounds[i])
		}
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
			f.Name, labelPart(f.LabelKey, s.LabelValue, "le", le), cum); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n",
		f.Name, labelPart(f.LabelKey, s.LabelValue, "", ""), formatFloat(s.Sum)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n",
		f.Name, labelPart(f.LabelKey, s.LabelValue, "", ""), s.Count)
	return err
}

// labelPart renders the {k="v",...} label block from up to two pairs,
// omitting empty keys; it returns "" when no labels apply.
func labelPart(k1, v1, k2, v2 string) string {
	var parts []string
	if k1 != "" {
		parts = append(parts, k1+`="`+escapeLabel(v1)+`"`)
	}
	if k2 != "" {
		parts = append(parts, k2+`="`+escapeLabel(v2)+`"`)
	}
	if len(parts) == 0 {
		return ""
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// escapeLabel applies the exposition-format label escapes.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// formatFloat renders a float in the shortest round-trip form, matching
// the simtrace gauge convention; infinities use the exposition spelling.
func formatFloat(v float64) string {
	if math.IsInf(v, +1) {
		return "+Inf"
	}
	if math.IsInf(v, -1) {
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
