package cpu

// StepPerClock makes c run ahead one clock per step call, never a whole
// instruction at a time: the per-clock oracle of the whole-instruction
// path.
func (c *Core) StepPerClock() { c.perClock = true }

// CPU returns c. A platform's ARM master embeds its core, so this is how
// a test reaches the core behind a platform.Master.
func (c *Core) CPU() *Core { return c }

// Decode unpacks an instruction; it reports whether the opcode is valid.
func Decode(w0, w1 uint32) (Inst, bool) {
	var i Inst
	ok := i.decode(w0, w1)
	return i, ok
}
