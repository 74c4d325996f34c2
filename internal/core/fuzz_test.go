package core

import (
	"bytes"
	"testing"
)

// FuzzAssembleTGP: the .tgp assembler must never panic, and anything it
// accepts must survive a Format→Assemble round trip.
func FuzzAssembleTGP(f *testing.F) {
	f.Add("MASTER[0,0]\nBEGIN\nHalt\nEND")
	f.Add(`MASTER[1,2]
REGISTER addr 0x104
REGISTER tempreg 1
BEGIN
start:
	Idle(11)
	Read(addr)
	If rdreg != tempreg then start
	Jump(start)
END`)
	f.Add("MASTER[0,0]\nREGISTER a 0\nBEGIN\nBurstWrite(a, a, 4)\nHalt\nEND")
	f.Add("garbage ( [ } END BEGIN")
	f.Fuzz(func(t *testing.T, src string) {
		p, err := Assemble(src)
		if err != nil {
			return
		}
		text, err := tgpText(p)
		if err != nil {
			t.Fatalf("accepted program fails to format: %v", err)
		}
		p2, err := Assemble(text)
		if err != nil {
			t.Fatalf("canonical output does not reassemble: %v\n%s", err, text)
		}
		if len(p2.Insts) != len(p.Insts) {
			t.Fatalf("round trip changed instruction count %d → %d", len(p.Insts), len(p2.Insts))
		}
	})
}

// FuzzReadBin: arbitrary bytes must never panic the .bin decoder, and
// accepted images must re-encode to an equivalent program.
func FuzzReadBin(f *testing.F) {
	p := NewProgram(3, 1)
	if _, err := p.AddReg("addr", 0x104); err != nil {
		f.Fatal(err)
	}
	p.Insts = []Inst{{Op: Read, Ra: 1}, {Op: Halt}}
	var buf bytes.Buffer
	if err := p.WriteBin(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte("TGBIN1\x00\x00garbage"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := ReadBin(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := p.WriteBin(&out); err != nil {
			t.Fatalf("accepted image fails to re-encode: %v", err)
		}
		p2, err := ReadBin(&out)
		if err != nil || len(p2.Insts) != len(p.Insts) {
			t.Fatalf("re-encoded image does not round trip: %v", err)
		}
	})
}
