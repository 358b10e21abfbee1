package stats

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// FuzzParseSeries: ParseSeries never panics, every document it refuses gets
// one of its named errors, and every document it accepts renders through
// WriteReport — the voyager-stats report — without panicking, with the
// default options and with narrow ones that print a per-window table.
func FuzzParseSeries(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		doc, err := ParseSeries(bytes.NewReader(data))
		if err != nil {
			for _, named := range []error{ErrSeriesJSON, ErrSeriesSchema, ErrNullSeries, ErrSeriesWindows} {
				if errors.Is(err, named) {
					return
				}
			}
			t.Fatalf("ParseSeries refused with an unnamed error: %v", err)
		}
		narrow := ReportOpts{TopK: 1, Width: 3}
		if paths := doc.SortedPaths(); len(paths) > 0 {
			narrow.Match = paths[0]
		}
		for _, opts := range []ReportOpts{{}, narrow} {
			if err := WriteReport(io.Discard, doc, opts); err != nil {
				t.Fatal(err)
			}
		}
	})
}
