package baseline

import (
	"encoding/binary"

	"github.com/nofreelunch/gadget-planner/internal/core"
	"github.com/nofreelunch/gadget-planner/internal/payload"
	"github.com/nofreelunch/gadget-planner/internal/planner"
	"github.com/nofreelunch/gadget-planner/internal/sbf"
)

// VerifyBytes runs a raw chain payload, built for stack address
// core.DefaultPayloadBase, in the emulator against the goal. It reuses the
// Gadget-Planner validation harness and step budget: the shared ground
// truth for every tool in the comparison.
func VerifyBytes(bin *sbf.Binary, bytes []byte, goal planner.Goal) bool {
	if len(bytes) < 8 {
		return false
	}
	p := &payload.Payload{
		Bytes: bytes,
		Base:  core.DefaultPayloadBase,
		Entry: binary.LittleEndian.Uint64(bytes),
		Goal:  goal,
	}
	return payload.Verify(bin, p, core.VerifySteps) == nil
}
