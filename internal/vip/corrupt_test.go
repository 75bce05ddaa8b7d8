package vip

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"hash/crc32"
	"testing"

	"github.com/indoorspatial/ifls/internal/faults"
	"github.com/indoorspatial/ifls/internal/testvenue"
)

// savedTree returns a valid serialized index and its venue.
func savedTree(t testing.TB) ([]byte, *Tree) {
	t.Helper()
	v := testvenue.Grid(testvenue.GridParams{Cols: 5, Levels: 1, InterRoomDoors: true})
	tree := MustBuild(v, Options{LeafFanout: 2, NodeFanout: 2, Vivid: true})
	var buf bytes.Buffer
	if err := tree.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), tree
}

// wantCorrupt asserts Load rejects data with ErrCorruptIndex.
func wantCorrupt(t *testing.T, data []byte, tree *Tree, what string) {
	t.Helper()
	loaded, err := Load(bytes.NewReader(data), tree.Venue())
	if loaded != nil {
		t.Fatalf("%s: Load returned a partial tree alongside err=%v", what, err)
	}
	if !errors.Is(err, faults.ErrCorruptIndex) {
		t.Errorf("%s: err = %v, want ErrCorruptIndex", what, err)
	}
}

// TestLoadRejectsHeaderTampering: each header field is verified — magic,
// version, declared length, and checksum.
func TestLoadRejectsHeaderTampering(t *testing.T) {
	data, tree := savedTree(t)

	bad := append([]byte(nil), data...)
	bad[0] = 'X'
	wantCorrupt(t, bad, tree, "bad magic")

	bad = append([]byte(nil), data...)
	binary.LittleEndian.PutUint32(bad[8:], 99)
	wantCorrupt(t, bad, tree, "future format version")

	bad = append([]byte(nil), data...)
	binary.LittleEndian.PutUint64(bad[12:], 1<<40)
	wantCorrupt(t, bad, tree, "absurd declared length")

	bad = append([]byte(nil), data...)
	binary.LittleEndian.PutUint64(bad[12:], 0)
	wantCorrupt(t, bad, tree, "zero declared length")

	bad = append([]byte(nil), data...)
	bad[20] ^= 0xff
	wantCorrupt(t, bad, tree, "tampered checksum")
}

// TestLoadRejectsTruncation: cutting the stream anywhere — inside the
// header or inside the payload — is a typed corruption error, not a panic
// or a partial tree.
func TestLoadRejectsTruncation(t *testing.T) {
	data, tree := savedTree(t)
	for _, n := range []int{0, 7, 23, 24, len(data) / 2, len(data) - 1} {
		wantCorrupt(t, data[:n], tree, "truncated")
	}
}

// TestLoadRejectsBitFlip: any single flipped payload bit fails the CRC.
func TestLoadRejectsBitFlip(t *testing.T) {
	data, tree := savedTree(t)
	for _, off := range []int{24, 24 + (len(data)-24)/2, len(data) - 1} {
		bad := append([]byte(nil), data...)
		bad[off] ^= 0x01
		wantCorrupt(t, bad, tree, "payload bit flip")
	}
}

// reseal re-encodes a tampered payload under a fresh, valid envelope, so
// the corruption reaches the deep-validation layer instead of the CRC.
func reseal(t *testing.T, in treeGob) []byte {
	t.Helper()
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(in); err != nil {
		t.Fatal(err)
	}
	out := make([]byte, 24, 24+payload.Len())
	copy(out, indexMagic[:])
	binary.LittleEndian.PutUint32(out[8:], indexFormatVersion)
	binary.LittleEndian.PutUint64(out[12:], uint64(payload.Len()))
	binary.LittleEndian.PutUint32(out[20:], crc32.Checksum(payload.Bytes(), castagnoli))
	return append(out, payload.Bytes()...)
}

// decodePayload re-decodes a valid index file into its mutable gob form.
func decodePayload(t *testing.T, data []byte) treeGob {
	t.Helper()
	var in treeGob
	if err := gob.NewDecoder(bytes.NewReader(data[24:])).Decode(&in); err != nil {
		t.Fatal(err)
	}
	return in
}

// TestLoadDeepValidation: structurally corrupt payloads that pass the
// checksum (resealed after tampering) are rejected by deep validation with
// ErrCorruptIndex — never an index-out-of-range panic.
func TestLoadDeepValidation(t *testing.T) {
	data, tree := savedTree(t)
	cases := map[string]func(*treeGob){
		"root out of range":      func(g *treeGob) { g.Root = NodeID(len(g.Nodes)) },
		"leafOf out of range":    func(g *treeGob) { g.LeafOf[0] = -2 },
		"leafOf wrong length":    func(g *treeGob) { g.LeafOf = g.LeafOf[:1] },
		"depth wrong length":     func(g *treeGob) { g.Depth = append(g.Depth, 0) },
		"child out of range":     func(g *treeGob) { firstInternal(g).Children[0] = 1 << 20 },
		"partition out of range": func(g *treeGob) { firstLeaf(g).Parts[0] = 9999 },
		"door out of range":      func(g *treeGob) { firstLeaf(g).Doors[0] = -1 },
		"negative distance":      func(g *treeGob) { firstLeaf(g).Full[0][0] = -3 },
		"NaN distance": func(g *treeGob) {
			nan := 0.0
			firstLeaf(g).Full[0][0] = nan / nan
		},
		"matrix row count": func(g *treeGob) {
			l := firstLeaf(g)
			l.Full = l.Full[:len(l.Full)-1]
		},
		"matrix column count": func(g *treeGob) {
			l := firstLeaf(g)
			l.Full[0] = l.Full[0][:len(l.Full[0])-1]
		},
		"ancestor matrix mismatch": func(g *treeGob) { firstLeaf(g).Anc = firstLeaf(g).Anc[:0] },
		"no nodes":                 func(g *treeGob) { g.Nodes = nil },
		// The fixture venue has no dead ends, so every partition of a
		// leaf counts against LeafFanout: lowering it under the fullest
		// leaf makes that leaf hold LeafFanout+1 such partitions.
		"overfull leaf": func(g *treeGob) {
			fullest := 0
			for _, nd := range g.Nodes {
				if nd.Leaf && len(nd.Parts) > fullest {
					fullest = len(nd.Parts)
				}
			}
			g.Opts.LeafFanout = fullest - 1
		},
	}
	for name, mutate := range cases {
		t.Run(name, func(t *testing.T) {
			in := decodePayload(t, data)
			mutate(&in)
			wantCorrupt(t, reseal(t, in), tree, name)
		})
	}
}

func firstLeaf(g *treeGob) *nodeGob {
	for i := range g.Nodes {
		if g.Nodes[i].Leaf {
			return &g.Nodes[i]
		}
	}
	panic("no leaf")
}

func firstInternal(g *treeGob) *nodeGob {
	for i := range g.Nodes {
		if !g.Nodes[i].Leaf {
			return &g.Nodes[i]
		}
	}
	panic("no internal node")
}

// TestLoadInfiniteDistanceAllowed: +Inf encodes unreachable door pairs in
// venues with disconnected components and must survive validation.
func TestLoadInfiniteDistanceAllowed(t *testing.T) {
	data, tree := savedTree(t)
	in := decodePayload(t, data)
	inf := 1.0
	firstLeaf(&in).Full[0][1] = inf / 0.0
	if _, err := Load(bytes.NewReader(reseal(t, in)), tree.Venue()); err != nil {
		t.Fatalf("Load rejected +Inf distance: %v", err)
	}
}

// TestLoadWrongVenueTyped: a healthy index loaded against the wrong venue
// is a pairing error (ErrInvalidOptions), not corruption.
func TestLoadWrongVenueTyped(t *testing.T) {
	data, _ := savedTree(t)
	_, err := Load(bytes.NewReader(data), testvenue.TwoRooms())
	if !errors.Is(err, faults.ErrInvalidOptions) {
		t.Errorf("err = %v, want ErrInvalidOptions", err)
	}
	if errors.Is(err, faults.ErrCorruptIndex) {
		t.Errorf("venue mismatch misclassified as corruption: %v", err)
	}
}
