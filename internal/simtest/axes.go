package simtest

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"testing"

	"noctg/internal/sim"
)

// Axes lists the values of each execution axis. None of them may change an
// artifact byte: every kernel, shard count, worker count and journal cut
// must reproduce what the first value of each axis produces.
type Axes struct {
	// Kernels are -kernel flag values (platform.ParseKernel's spelling).
	Kernels []string
	// Shards are -shards values; 0 is the single engine.
	Shards []int
	// Workers are -workers values: how many points run at once.
	Workers []int
	// ResumeCuts are journal cuts, in percent of the journal's bytes: the
	// run is journaled, its journal is cut there (mid-record, so the tail
	// is torn) and resumed. 0 is an uninterrupted run.
	ResumeCuts []int
}

// Table is the repository's one table of execution axes. Its first column
// is the reference: the strict kernel on one engine, one worker, no cut.
// Retiring an axis value is a one-row edit here.
var Table = Axes{
	Kernels:    []string{"strict", "event"},
	Shards:     []int{0, 1, 2, 3, 4, 8},
	Workers:    []int{1, 2, 3, 4, 8},
	ResumeCuts: []int{0, 35, 80},
}

// Axis is a set of execution axes a campaign varies.
type Axis uint8

const (
	Kernel Axis = 1 << iota
	Shards
	Workers
	Resume
	// Split is not an axis: it lets the covering set spread a campaign's
	// items over the rows past the single-engine kernels, for campaigns too
	// costly to run whole on every sharded row. Each such row runs a part
	// of the items and is compared with the reference on the same part, so
	// every item still meets some sharded row and every kernel runs whole.
	// Under NOCTG_AXES=full every row runs every item.
	Split
	// Rotated is not an axis either: it marks a campaign whose kernel-only
	// rows a neighbouring test already runs. Rows then leaves out every row
	// that differs from the reference in its kernel alone, and the kernel
	// only rotates over the other axes' rows.
	Rotated
)

// Exec is one row of the table: one execution choice, and which part of a
// split campaign's items it runs.
type Exec struct {
	Kernel  string
	Shards  int
	Workers int
	Cut     int
	// Part and Parts select items i with i%Parts == Part; Parts 0 is all.
	Part, Parts int
}

// Items is the part of a campaign's items that row x runs.
func Items[T any](x Exec, items []T) []T {
	if x.Parts == 0 {
		return items
	}
	var part []T
	for i := x.Part; i < len(items); i += x.Parts {
		part = append(part, items[i])
	}
	return part
}

func (x Exec) String() string {
	s := fmt.Sprintf("%s/shards=%d/workers=%d", x.Kernel, x.Shards, x.Workers)
	if x.Cut != 0 {
		s += fmt.Sprintf("/cut=%d%%", x.Cut)
	}
	if x.Parts != 0 {
		s += fmt.Sprintf("/part=%d-of-%d", x.Part+1, x.Parts)
	}
	return s
}

// Reference is the row every other row is compared against.
func Reference() Exec {
	return Exec{Kernel: Table.Kernels[0], Shards: Table.Shards[0], Workers: Table.Workers[0], Cut: Table.ResumeCuts[0]}
}

// SimKernel is the engine kernel x names, for tests below the platform
// layer.
func (x Exec) SimKernel() sim.Kernel {
	for k := sim.KernelStrict; k <= sim.KernelEvent; k++ {
		if k.String() == x.Kernel {
			return k
		}
	}
	panic("simtest: no engine kernel named " + x.Kernel)
}

// axesEnv selects how many rows a campaign runs. Unset, a campaign runs a
// covering set: the reference, every kernel on one engine, then rows in
// which the other axes it varies step through their values together, the
// kernel rotating, so every value of every axis appears. NOCTG_AXES=full
// runs the full cross product instead.
const axesEnv = "NOCTG_AXES"

// Rows returns the rows a campaign over the given axes runs, the reference
// first. Axes outside over stay at their reference value.
func Rows(t testing.TB, over Axis) []Exec {
	t.Helper()
	ref := Reference()
	switch mode := os.Getenv(axesEnv); mode {
	case "full":
		rows := []Exec{ref}
		for _, k := range values(over&Kernel != 0, Table.Kernels) {
			for _, s := range values(over&Shards != 0, Table.Shards) {
				for _, w := range values(over&Workers != 0, Table.Workers) {
					for _, c := range values(over&Resume != 0, Table.ResumeCuts) {
						if x := (Exec{Kernel: k, Shards: s, Workers: w, Cut: c}); x != ref && !(over&Rotated != 0 && kernelOnly(x)) {
							rows = append(rows, x)
						}
					}
				}
			}
		}
		return rows
	case "":
	default:
		t.Fatalf("%s=%q: want full or unset", axesEnv, mode)
	}
	rows := []Exec{ref}
	if over&Kernel != 0 && over&Rotated == 0 {
		for _, k := range Table.Kernels[1:] {
			x := ref
			x.Kernel = k
			rows = append(rows, x)
		}
	}
	// The other axes advance together, one value per row, while the kernel
	// follows rotation, so the first sharded, multi-worker or resumed row
	// runs the default (last) kernel.
	n := 0
	for _, a := range []struct {
		axis Axis
		vs   []int
	}{{Shards, Table.Shards}, {Workers, Table.Workers}, {Resume, Table.ResumeCuts}} {
		if over&a.axis != 0 {
			n = max(n, len(a.vs)-1)
		}
	}
	for i := 1; i <= n; i++ {
		x := ref
		pick := func(a Axis, vs []int) int {
			if over&a == 0 {
				return vs[0]
			}
			return vs[i%len(vs)]
		}
		x.Shards, x.Workers, x.Cut = pick(Shards, Table.Shards), pick(Workers, Table.Workers), pick(Resume, Table.ResumeCuts)
		if over&Kernel != 0 {
			x.Kernel = rotation[(i-1)%len(rotation)]
		}
		if over&Split != 0 {
			x.Part, x.Parts = i-1, n
		}
		rows = append(rows, x)
	}
	return rows
}

// rotation is the kernel cycle of the covering rows past the single-engine
// ones: the default (last) kernel takes two rows of every three and the
// strict oracle the third, so each row keeps the kernel, and the subtest
// name, it had when a third kernel took the middle slot.
var rotation = []string{"event", "event", "strict"}

// kernelOnly reports whether x differs from the reference in its kernel
// alone.
func kernelOnly(x Exec) bool {
	ref := Reference()
	ref.Kernel = x.Kernel
	return x == ref
}

// values is vs when the axis varies, else its reference value alone.
func values[T any](varies bool, vs []T) []T {
	if varies {
		return vs
	}
	return vs[:1]
}

// Campaign runs one execution row and returns the artifact bytes it
// produced.
type Campaign func(t *testing.T, x Exec) []byte

// Render returns the bytes write serialises, for a campaign to return.
func Render(t testing.TB, write func(io.Writer) error) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// Differential is the one differential oracle: it runs campaign on the
// reference row, then on every other row over the given axes, and fails
// the test for each row whose bytes differ from the reference's on the
// same items. The other rows run as parallel subtests named after the row
// (go test -run 'TestX/event/shards=4' picks one), so a campaign must only
// read what it shares across rows. Differential returns the reference
// bytes of the whole campaign, so a caller can hold the oracle itself to
// a stored artifact with Pin.
func Differential(t *testing.T, name string, over Axis, campaign Campaign) []byte {
	t.Helper()
	rows := Rows(t, over)
	ref := campaign(t, rows[0])
	for _, x := range rows[1:] {
		t.Run(x.String(), func(t *testing.T) {
			t.Parallel()
			want, on := ref, rows[0]
			if x.Parts != 0 {
				on.Part, on.Parts = x.Part, x.Parts
				want = campaign(t, on)
			}
			got := campaign(t, x)
			if !bytes.Equal(got, want) {
				t.Errorf("%s: %v diverged from %v\n%s", name, x, on, firstDiff(got, want))
			}
		})
	}
	return ref
}

// firstDiff shows where got first departs from want.
func firstDiff(got, want []byte) string {
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	clip := func(b []byte) []byte {
		lo, hi := max(i-80, 0), min(i+160, len(b))
		if lo > len(b) {
			return nil
		}
		return b[lo:hi]
	}
	return fmt.Sprintf("first difference at byte %d of %d (want %d):\n got …%s…\nwant …%s…",
		i, len(got), len(want), clip(got), clip(want))
}
