package graph

import (
	"encoding/binary"
	"math"
	"testing"

	"fastppv/internal/corpus"
)

// TestRegenBinaryGraphCorpus writes the committed seed corpus of
// FuzzReadBinary: whole files from WriteBinary, and forged or cut copies of
// them. Gated behind PPV_REGEN_CORPUS=1.
func TestRegenBinaryGraphCorpus(t *testing.T) {
	corpus.SkipUnlessRegen(t)
	directed := binaryOf(t, smallDirected(t))
	labeled := binaryOf(t, labeledUndirected(t))
	// The first offset of smallDirected sits right after the 24-byte header.
	pastArcs := append([]byte(nil), directed...)
	binary.LittleEndian.PutUint64(pastArcs[24+8:], 1<<40)
	// smallDirected's first target follows its 5 offsets.
	badTarget := append([]byte(nil), directed...)
	binary.LittleEndian.PutUint32(badTarget[24+5*8:], 99)
	corpus.Write(t, "FuzzReadBinary",
		directed,
		labeled,
		directed[:len(directed)-6],                // cut inside the targets
		labeled[:len(labeled)-2],                  // cut inside a label
		withHeader(directed, 1<<62, 4),            // a node count no slice can hold
		withHeader(directed, 1<<30, 4),            // a large node count the file does not hold
		withHeader(directed, 4, math.MaxUint32+1), // past the arc limit
		withHeader(directed, math.MaxInt32+1, 4),  // past the node limit
		pastArcs,                                  // an offset past the arc count
		badTarget,                                 // a target past the node count
	)
}
