// Package store persists whole databases as a directory. It writes one
// format and reads two, negotiated on load:
//
// v2 (the format written): one zero-copy columnar segment file
// (segments.sg2) holding the already-partitioned corpus — flat
// little-endian point/lo/hi arrays, the MBR directory, and the packed
// STR leaf grouping of the R*-tree, all checksummed per section. Load
// maps (or one-shot reads) the file and aliases the Segmented
// Flat/Lo/Hi arrays in place, then packs the tree bottom-up from the
// stored leaves: no per-sequence deserialization and no re-partitioning.
// See segment.go for the exact layout.
//
// v1 (read-only legacy): sequence data in seqio records plus a metadata
// file, as directories written before v2 hold. Load re-partitions every
// sequence to rebuild the index — partitioning is deterministic, so the
// reconstructed database is equivalent, but the rebuild decodes and
// re-segments every point. Saving a loaded v1 store rewrites it as v2.
//
// Stores are written crash-safely: the replacement directory is fully
// staged and fsynced beside the target, then swapped in by rename (see
// atomic.go). Loads never read a partially written store.
//
// Numeric sequence ids are not preserved across Save/Load (removed ids
// compact away); labels are the stable identity.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/rtree"
	"repro/internal/seqio"
)

const (
	metaMagic   = "MDSSTOR1"
	seqFile     = "sequences.mds"
	metaFile    = "meta.bin"
	indexFile   = "index.db"
	metaLen     = 8 + 2 + 8 + 8 // magic + dim + QueryExtent + MaxPoints
	maxMetaDims = 1 << 15
)

// ErrBadStore indicates a missing or corrupt store directory.
var ErrBadStore = errors.New("store: bad store directory")

// LoadOptions configures Load/LoadSharded beyond the directory path.
type LoadOptions struct {
	// FileIndex places index pages in files under the store directory
	// instead of memory.
	FileIndex bool
	// Quantized is passed to the loaded database as
	// core.Options.QuantizedMBR, where it is accepted and has no effect.
	Quantized bool
}

// writeMeta records dimensionality and partitioning config in dir.
func writeMeta(dir string, dim int, cfg core.PartitionConfig) error {
	meta := make([]byte, metaLen)
	copy(meta[0:8], metaMagic)
	binary.LittleEndian.PutUint16(meta[8:10], uint16(dim))
	binary.LittleEndian.PutUint64(meta[10:18], math.Float64bits(cfg.QueryExtent))
	binary.LittleEndian.PutUint64(meta[18:26], uint64(cfg.MaxPoints))
	return writeFileSynced(filepath.Join(dir, metaFile), meta, 0o644)
}

// readMeta parses dir's metadata record.
func readMeta(dir string) (dim int, cfg core.PartitionConfig, err error) {
	meta, err := os.ReadFile(filepath.Join(dir, metaFile))
	if err != nil {
		return 0, cfg, fmt.Errorf("%w: %v", ErrBadStore, err)
	}
	if len(meta) != metaLen || string(meta[0:8]) != metaMagic {
		return 0, cfg, fmt.Errorf("%w: bad meta file", ErrBadStore)
	}
	dim = int(binary.LittleEndian.Uint16(meta[8:10]))
	if dim < 1 || dim > maxMetaDims {
		return 0, cfg, fmt.Errorf("%w: dim %d", ErrBadStore, dim)
	}
	cfg = core.PartitionConfig{
		QueryExtent: math.Float64frombits(binary.LittleEndian.Uint64(meta[10:18])),
		MaxPoints:   int(binary.LittleEndian.Uint64(meta[18:26])),
	}
	return dim, cfg, nil
}

// writeDirV2 writes one v2 database directory (meta, the columnar
// segment file, and the packed R*-tree pages as index.db) into dir,
// which must already exist; all files are fsynced. Empty segment sets
// write only the meta file. Baking the index pages in at save time is
// what makes the v2 cold open a pure reattach: Load maps the segments
// and opens the prebuilt pages with no partitioning and no tree build.
func writeDirV2(dir string, dim int, cfg core.PartitionConfig, segs []*core.Segmented) error {
	if len(segs) > 0 {
		leaves, treeM, err := packLeaves(segs, dim)
		if err != nil {
			return err
		}
		if err := writeSegmentsFile(filepath.Join(dir, segFile), dim, cfg, segs, leaves, treeM); err != nil {
			return err
		}
		if err := writeIndexV2(dir, dim, cfg, segs, leaves, treeM); err != nil {
			return err
		}
	}
	return writeMeta(dir, dim, cfg)
}

// writeIndexV2 bulk-loads the packed leaves into a file-backed R*-tree
// at <dir>/index.db. It works on detached copies of the segments: the
// database stamps dense ids into Seq.ID during the load, and the caller's
// (live) sequence headers must not see that.
func writeIndexV2(dir string, dim int, cfg core.PartitionConfig, segs []*core.Segmented, leaves [][]rtree.Ref, treeM int) error {
	detached := make([]*core.Segmented, len(segs))
	for i, g := range segs {
		gc := *g
		sc := *g.Seq
		gc.Seq = &sc
		detached[i] = &gc
	}
	path := filepath.Join(dir, indexFile)
	db, err := core.NewDatabase(core.Options{Dim: dim, Partition: cfg, Path: path})
	if err != nil {
		return err
	}
	if db.IndexFanout() != treeM {
		leaves = nil
	}
	if _, err := db.AddAllSegmented(detached, leaves); err != nil {
		db.Close()
		return err
	}
	if err := db.Flush(); err != nil {
		db.Close()
		return err
	}
	if err := db.Close(); err != nil {
		return err
	}
	return syncFile(path)
}

// hasSegments reports whether dir carries a v2 segment file — the
// format sniff loads negotiate on (v2 wins when present).
func hasSegments(dir string) bool {
	_, err := os.Stat(filepath.Join(dir, segFile))
	return err == nil
}

// loadDir reads the sequences of one v1 database directory.
func loadDir(dir string) (dim int, cfg core.PartitionConfig, seqs []*core.Sequence, err error) {
	dim, cfg, err = readMeta(dir)
	if err != nil {
		return 0, cfg, nil, err
	}
	path := filepath.Join(dir, seqFile)
	if _, statErr := os.Stat(path); statErr != nil {
		if os.IsNotExist(statErr) {
			return dim, cfg, nil, nil // empty shard
		}
		return 0, cfg, nil, fmt.Errorf("%w: %v", ErrBadStore, statErr)
	}
	seqs, err = seqio.ReadFile(path)
	if err != nil {
		return 0, cfg, nil, fmt.Errorf("%w: %v", ErrBadStore, err)
	}
	return dim, cfg, seqs, nil
}

// loadDirCorpus reads one database directory in either format and
// returns its contents in segment form: v2 directories alias their
// segment file; v1 directories are re-partitioned in parallel (the bulk
// path — never one-at-a-time inserts). Empty directories return nil
// segments.
func loadDirCorpus(dir string) (dim int, cfg core.PartitionConfig, segs []*core.Segmented, leaves [][]rtree.Ref, treeM int, err error) {
	if hasSegments(dir) {
		dim, cfg, err = readMeta(dir)
		if err != nil {
			return 0, cfg, nil, nil, 0, err
		}
		c, err := readSegmentsFile(filepath.Join(dir, segFile))
		if err != nil {
			return 0, cfg, nil, nil, 0, err
		}
		if c.Dim != dim || c.Config != cfg {
			return 0, cfg, nil, nil, 0, fmt.Errorf("%w: meta and segment file disagree", ErrBadStore)
		}
		return dim, cfg, c.Segs, c.Leaves, c.TreeM, nil
	}
	var seqs []*core.Sequence
	dim, cfg, seqs, err = loadDir(dir)
	if err != nil || len(seqs) == 0 {
		return dim, cfg, nil, nil, 0, err
	}
	segs, err = buildSegments(seqs, dim, cfg)
	if err != nil {
		return 0, cfg, nil, nil, 0, fmt.Errorf("%w: %v", ErrBadStore, err)
	}
	return dim, cfg, segs, nil, 0, nil
}

// Save writes db's live sequences and configuration into dir,
// atomically: the previous contents are replaced only once the new store
// is fully on disk.
func Save(db *core.Database, dir string) error {
	segs := db.LiveSegments()
	if len(segs) == 0 {
		return errors.New("store: refusing to save an empty database")
	}
	return saveAtomic(dir, func(tmp string) error {
		return writeDirV2(tmp, db.Dim(), db.PartitionConfig(), segs)
	})
}

// Load reads a store directory (either format) and rebuilds the
// database. With fileIndex set, the index pages live in <dir>/index.db;
// otherwise the index is in memory. Sharded stores (written by
// SaveSharded) are rejected with a pointer to LoadSharded.
func Load(dir string, fileIndex bool) (*core.Database, error) {
	return LoadWith(dir, LoadOptions{FileIndex: fileIndex})
}

// LoadWith is Load with full options. The format is sniffed from the
// directory contents: a segments.sg2 file selects the zero-copy v2
// path, otherwise the v1 re-partitioning path runs.
func LoadWith(dir string, o LoadOptions) (*core.Database, error) {
	if IsSharded(dir) {
		return nil, fmt.Errorf("%w: %s is a sharded store; use LoadSharded", ErrBadStore, dir)
	}
	if hasSegments(dir) {
		return loadV2(dir, o)
	}
	return loadV1(dir, o)
}

// loadV2 opens a v2 store: alias the segment file, bulk-load the tree
// from the packed leaves (or plain STR when the fanout changed), done.
func loadV2(dir string, o LoadOptions) (*core.Database, error) {
	dim, cfg, segs, leaves, treeM, err := loadDirCorpus(dir)
	if err != nil {
		return nil, err
	}
	if len(segs) == 0 {
		return nil, fmt.Errorf("%w: no sequences", ErrBadStore)
	}
	opts := core.Options{Dim: dim, Partition: cfg, QuantizedMBR: o.Quantized}
	if o.FileIndex {
		path := filepath.Join(dir, indexFile)
		// Fast path: reattach to an index a previous Load already built —
		// with the segments aliased from the file this makes a warm
		// restart free of both partitioning and tree packing.
		if _, statErr := os.Stat(path); statErr == nil {
			if db, err := core.OpenDatabaseSegmented(
				core.Options{Dim: dim, Partition: cfg, Path: path, QuantizedMBR: o.Quantized}, segs); err == nil {
				return db, nil
			}
			// Stale or mismatched: rebuild below.
			if err := os.RemoveAll(path); err != nil {
				return nil, err
			}
			os.Remove(path + ".wal")
		}
		opts.Path = path
	}
	db, err := core.NewDatabase(opts)
	if err != nil {
		return nil, err
	}
	if db.IndexFanout() != treeM {
		leaves = nil // grouping computed for a different page layout
	}
	if _, err := db.AddAllSegmented(segs, leaves); err != nil {
		db.Close()
		return nil, fmt.Errorf("%w: %v", ErrBadStore, err)
	}
	if o.FileIndex {
		if err := db.Flush(); err != nil {
			db.Close()
			return nil, err
		}
	}
	return db, nil
}

// loadV1 opens a v1 store, re-partitioning through the bulk path.
func loadV1(dir string, o LoadOptions) (*core.Database, error) {
	dim, cfg, seqs, err := loadDir(dir)
	if err != nil {
		return nil, err
	}
	if len(seqs) == 0 {
		return nil, fmt.Errorf("%w: no sequences", ErrBadStore)
	}

	opts := core.Options{Dim: dim, Partition: cfg, QuantizedMBR: o.Quantized}
	if o.FileIndex {
		path := filepath.Join(dir, indexFile)
		// Fast path: reattach to an index a previous Load already built.
		if _, statErr := os.Stat(path); statErr == nil {
			if db, err := core.OpenDatabase(core.Options{Dim: dim, Partition: cfg, Path: path, QuantizedMBR: o.Quantized}, seqs); err == nil {
				return db, nil
			}
			// Stale or mismatched: rebuild below.
			if err := os.RemoveAll(path); err != nil {
				return nil, err
			}
			os.Remove(path + ".wal")
		}
		opts.Path = path
	}
	db, err := core.NewDatabase(opts)
	if err != nil {
		return nil, err
	}
	if _, err := db.AddAll(seqs); err != nil {
		db.Close()
		return nil, err
	}
	if o.FileIndex {
		if err := db.Flush(); err != nil {
			db.Close()
			return nil, err
		}
	}
	return db, nil
}
