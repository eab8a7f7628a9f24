package metablocking

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/store"
)

// Graph spilling: once a front-end pass has pruned the blocking graph,
// the graph is the session's largest idle structure — matching and
// serving read the retained-edge list, never the graph, and the next
// pass builds a new one. With a store attached, the session pages the
// CSR arrays out at stage boundaries — after the front-end build, when
// matching takes over, around a compaction epoch; the scalar statistics
// (node counts, block count, cached edge count and footprint) stay hot
// so /status never touches the store.
//
// Arrays are encoded raw little-endian, floats via IEEE-754 bits, so a
// spill/load round trip is bit-exact. The 'g' keyspace holds exactly
// one graph: each pass's graph overwrites its predecessor's.

const graphTag = 'g'

func graphKey(field byte) []byte { return []byte{graphTag, field} }

// Spill writes the graph's arrays to the store and drops them from the
// heap, caching NumEdges and Footprint for the hot-path gauges.
// Idempotent while spilled.
func (g *Graph) Spill(s store.Store) error {
	if g.spilled {
		return nil
	}
	g.spEdges = len(g.Edges)
	g.spFoot = g.Footprint()

	// Put copies (or frames) the value before returning, so one scratch
	// buffer serves all five fields.
	buf := g.scratch(24 * len(g.Edges))
	for i, e := range g.Edges {
		binary.LittleEndian.PutUint64(buf[24*i:], uint64(e.A))
		binary.LittleEndian.PutUint64(buf[24*i+8:], uint64(e.B))
		binary.LittleEndian.PutUint64(buf[24*i+16:], math.Float64bits(e.Weight))
	}
	if err := s.Put(graphKey('E'), buf); err != nil {
		return err
	}
	buf = g.scratch(8 * len(g.common))
	for i, v := range g.common {
		binary.LittleEndian.PutUint64(buf[8*i:], uint64(v))
	}
	if err := s.Put(graphKey('c'), buf); err != nil {
		return err
	}
	buf = g.scratch(8 * len(g.arcs))
	for i, v := range g.arcs {
		binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(v))
	}
	if err := s.Put(graphKey('a'), buf); err != nil {
		return err
	}
	if err := s.Put(graphKey('b'), g.encodeInt32s(g.blocks)); err != nil {
		return err
	}
	if err := s.Put(graphKey('d'), g.encodeInt32s(g.degree)); err != nil {
		return err
	}
	g.spill = s
	g.spilled = true
	g.Edges, g.common, g.arcs, g.blocks, g.degree = nil, nil, nil, nil, nil
	return nil
}

// Load pages the spilled arrays back in. Idempotent while resident.
func (g *Graph) Load() error {
	if !g.spilled {
		return nil
	}
	buf, err := g.loadField('E')
	if err != nil {
		return err
	}
	if len(buf) != 24*g.spEdges {
		return fmt.Errorf("metablocking: spilled edges hold %d bytes, want %d", len(buf), 24*g.spEdges)
	}
	g.Edges = make([]Edge, g.spEdges)
	for i := range g.Edges {
		g.Edges[i] = Edge{
			A:      int(int64(binary.LittleEndian.Uint64(buf[24*i:]))),
			B:      int(int64(binary.LittleEndian.Uint64(buf[24*i+8:]))),
			Weight: math.Float64frombits(binary.LittleEndian.Uint64(buf[24*i+16:])),
		}
	}
	if buf, err = g.loadField('c'); err != nil {
		return err
	}
	g.common = make([]int, len(buf)/8)
	for i := range g.common {
		g.common[i] = int(int64(binary.LittleEndian.Uint64(buf[8*i:])))
	}
	if buf, err = g.loadField('a'); err != nil {
		return err
	}
	g.arcs = make([]float64, len(buf)/8)
	for i := range g.arcs {
		g.arcs[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[8*i:]))
	}
	if buf, err = g.loadField('b'); err != nil {
		return err
	}
	g.blocks = decodeInt32s(buf)
	if buf, err = g.loadField('d'); err != nil {
		return err
	}
	g.degree = decodeInt32s(buf)
	g.spilled = false
	return nil
}

// Spilled reports whether the graph's arrays currently live in the store.
func (g *Graph) Spilled() bool { return g.spilled }

func (g *Graph) loadField(field byte) ([]byte, error) {
	buf, ok, err := g.spill.Get(graphKey(field))
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("metablocking: spilled graph field %q missing from store", field)
	}
	return buf, nil
}

// scratch returns the reused spill encode buffer grown to n bytes.
func (g *Graph) scratch(n int) []byte {
	if cap(g.spillBuf) < n {
		g.spillBuf = make([]byte, n)
	}
	return g.spillBuf[:n]
}

func (g *Graph) encodeInt32s(vs []int32) []byte {
	buf := g.scratch(4 * len(vs))
	for i, v := range vs {
		binary.LittleEndian.PutUint32(buf[4*i:], uint32(v))
	}
	return buf
}

func decodeInt32s(buf []byte) []int32 {
	vs := make([]int32, len(buf)/4)
	for i := range vs {
		vs[i] = int32(binary.LittleEndian.Uint32(buf[4*i:]))
	}
	return vs
}
