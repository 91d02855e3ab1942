package profile

import (
	"github.com/amnesiac-sim/amnesiac/internal/isa"
	"github.com/amnesiac-sim/amnesiac/internal/mem"
)

// CollectHot is CollectLimit with the hot-loop threshold set: at 1 a loop
// is recorded on its second iteration and replays from its third. It also
// returns the number of instructions retired under replay.
func CollectHot(p *isa.Program, initial *mem.Memory, maxInstrs uint64, threshold uint32) (*Profile, uint64, error) {
	return collect(p, initial, maxInstrs, threshold)
}
