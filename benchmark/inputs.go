package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"

	minoaner "repro"
	"repro/internal/datagen"
	"repro/internal/rdf"
)

// corpus is one seeded input set: a datagen LOD-cloud world (two dense
// centre KBs, two sparse periphery KBs) and its descriptions in a
// seeded arrival order. The program under test never sees the world or
// the seed — only the N-Triples files and wire batches written from
// descs.
type corpus struct {
	world *datagen.World
	// descs lists every description in arrival order: the stream
	// workloads load a prefix and ingest the rest wave by wave, so the
	// order is shuffled across KBs rather than KB by KB.
	descs []minoaner.Description
	// worldID maps a description back to its id in world.Collection,
	// the id space of the ground truth.
	worldID map[minoaner.Ref]int
}

func newCorpus(seed int64, entities int) (*corpus, error) {
	w, err := datagen.Generate(datagen.LODCloud(seed, entities))
	if err != nil {
		return nil, fmt.Errorf("generate corpus: %w", err)
	}
	n := w.Collection.Len()
	c := &corpus{world: w, descs: make([]minoaner.Description, 0, n), worldID: make(map[minoaner.Ref]int, n)}
	for _, id := range rand.New(rand.NewSource(seed)).Perm(n) {
		d := w.Collection.Desc(id)
		c.descs = append(c.descs, minoaner.Description{KB: d.KB, URI: d.URI, Types: d.Types, Attrs: d.Attrs, Links: d.Links})
		c.worldID[minoaner.Ref{KB: d.KB, URI: d.URI}] = id
	}
	return c, nil
}

// kbFile names one N-Triples file and the knowledge base it loads as.
type kbFile struct {
	Name string `json:"name"`
	Path string `json:"path"`
}

// writeKBs writes descs as one N-Triples file per knowledge base under
// dir, in the triple shapes datagen.World.Triples emits, and returns
// the files in first-appearance order of their KBs.
func writeKBs(dir string, descs []minoaner.Description) ([]kbFile, error) {
	var files []kbFile
	encs := make(map[string]*rdf.Encoder)
	var handles []*os.File
	defer func() {
		for _, f := range handles {
			f.Close()
		}
	}()
	for _, d := range descs {
		enc := encs[d.KB]
		if enc == nil {
			path := filepath.Join(dir, d.KB+".nt")
			f, err := os.Create(path)
			if err != nil {
				return nil, err
			}
			handles = append(handles, f)
			enc = rdf.NewEncoder(f)
			encs[d.KB] = enc
			files = append(files, kbFile{Name: d.KB, Path: path})
		}
		subj := rdf.NewIRI(d.URI)
		for _, ty := range d.Types {
			enc.Encode(rdf.NewTriple(subj, rdf.NewIRI(rdf.RDFType), rdf.NewIRI(ty)))
		}
		for _, a := range d.Attrs {
			enc.Encode(rdf.NewTriple(subj, rdf.NewIRI(a.Predicate), rdf.NewLiteral(a.Value)))
		}
		for _, l := range d.Links {
			enc.Encode(rdf.NewTriple(subj, rdf.NewIRI("http://"+d.KB+".example.org/onto#related"), rdf.NewIRI(l)))
		}
	}
	for _, kf := range files {
		if err := encs[kf.Name].Flush(); err != nil { // sticky: reports any earlier Encode error too
			return nil, fmt.Errorf("write %s: %w", kf.Path, err)
		}
	}
	for _, f := range handles {
		if err := f.Close(); err != nil {
			return nil, err
		}
	}
	handles = nil
	return files, nil
}

// wave is one mutation of a live session: a batch to ingest or a set of
// references to evict, never both.
type wave struct {
	Ingest []minoaner.Description `json:"ingest,omitempty"`
	Evict  []minoaner.Ref         `json:"evict,omitempty"`
}

// makeWaves derives the stream workloads' op list: descs[:seedN] is the
// corpus loaded before Start; ingestWaves batches of batch descriptions
// follow in arrival order, and after every second ingest one evict wave
// removes the batch oldest descriptions still live.
func makeWaves(descs []minoaner.Description, seedN, ingestWaves, batch int) []wave {
	var waves []wave
	next, oldest := seedN, 0
	for i := 0; i < ingestWaves && next+batch <= len(descs); i++ {
		waves = append(waves, wave{Ingest: descs[next : next+batch]})
		next += batch
		if i%2 == 1 {
			refs := make([]minoaner.Ref, batch)
			for j, d := range descs[oldest : oldest+batch] {
				refs[j] = minoaner.Ref{KB: d.KB, URI: d.URI}
			}
			waves = append(waves, wave{Evict: refs})
			oldest += batch
		}
	}
	return waves
}

// survivors replays waves over descs[:seedN] and returns the
// descriptions still live at the end, in the order a session numbers
// them: the seed corpus KB file by KB file (as writeKBs groups it), then
// each ingest wave. A from-scratch session loaded in this order breaks
// ties between equal-weight comparisons the same way.
func survivors(descs []minoaner.Description, seedN int, waves []wave) []minoaner.Description {
	gone := make(map[minoaner.Ref]bool)
	n := seedN
	for _, w := range waves {
		n += len(w.Ingest)
		for _, r := range w.Evict {
			gone[r] = true
		}
	}
	var kbs []string
	byKB := make(map[string][]minoaner.Description)
	for _, d := range descs[:seedN] {
		if _, seen := byKB[d.KB]; !seen {
			kbs = append(kbs, d.KB)
		}
		byKB[d.KB] = append(byKB[d.KB], d)
	}
	var ordered []minoaner.Description
	for _, name := range kbs {
		ordered = append(ordered, byKB[name]...)
	}
	ordered = append(ordered, descs[seedN:n]...)
	live := ordered[:0]
	for _, d := range ordered {
		if !gone[minoaner.Ref{KB: d.KB, URI: d.URI}] {
			live = append(live, d)
		}
	}
	return live
}

// digest hashes any JSON-encodable input (a corpus's descriptions, an
// op list), so a test can assert same seed → same bytes.
func digest(v any) string {
	h := sha256.New()
	if err := json.NewEncoder(h).Encode(v); err != nil {
		panic(err) // plain data; encoding cannot fail
	}
	return hex.EncodeToString(h.Sum(nil))
}

func writeJSON(path string, v any) error {
	buf, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}

func readJSON(path string, v any) error {
	buf, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(buf, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}
