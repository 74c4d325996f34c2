package trace

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzParse: arbitrary text must never panic the .trc parser, accepted
// traces must render exactly as the fmt oracle renders them, in as many
// bytes as Size counts, and they must survive a Write→Parse round trip.
func FuzzParse(f *testing.F) {
	f.Add("; noctg trace v1\n; master 0 clockns 5\nRD 0x00000104 @55ns acc@55ns\nRSP 0x088000f0 @75ns\n")
	f.Add("WR 0x00000020 0x00000111 @90ns acc@95ns\n")
	f.Add("BRD 0x00001000 +4 @140ns acc@145ns\nRSP 0x1 0x2 0x3 0x4 @165ns\n")
	f.Add("RSP orphan @10ns")
	f.Add("@@@@ ++++")
	f.Fuzz(func(t *testing.T, src string) {
		tr, err := Parse(strings.NewReader(src))
		if err != nil {
			return
		}
		if err := tr.Validate(); err != nil {
			// Parse accepts structurally valid lines whose timestamps may
			// violate ordering; Validate rejecting them is fine.
			return
		}
		requireOracle(t, tr)
		var buf bytes.Buffer
		if err := tr.Write(&buf); err != nil {
			t.Fatalf("accepted trace fails to serialise: %v", err)
		}
		tr2, err := Parse(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("canonical output does not reparse: %v\n%s", err, buf.String())
		}
		if len(tr2.Events) != len(tr.Events) {
			t.Fatalf("round trip changed event count %d → %d", len(tr.Events), len(tr2.Events))
		}
	})
}
