package platform

import "noctg/internal/cpu"

// ARMCore returns the miniARM core behind an ARM platform's master.
func ARMCore(m Master) *cpu.Core { return m.(*armMaster).Core }
