package prof

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// FuzzReadDoc: ReadDoc never panics, every document it refuses gets one of
// its named errors, and every document it accepts renders through each
// voyager-prof output — the report, folded stacks, pprof and the diff
// against itself — without panicking.
func FuzzReadDoc(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := ReadDoc(bytes.NewReader(data))
		if err != nil {
			for _, named := range []error{ErrDocJSON, ErrSchema, ErrNullTreeNode, ErrProcTimes} {
				if errors.Is(err, named) {
					return
				}
			}
			t.Fatalf("ReadDoc refused with an unnamed error: %v", err)
		}
		for _, write := range []func(io.Writer) error{
			func(w io.Writer) error { return d.WriteReport(w, 0) },
			func(w io.Writer) error { return d.WriteReport(w, 1) },
			d.WriteFolded,
			d.WritePprof,
			func(w io.Writer) error { return WriteDiff(w, d, d, 0) },
		} {
			if err := write(io.Discard); err != nil {
				t.Fatal(err)
			}
		}
	})
}
