// Package store persists whole databases as a directory. It writes one
// format and reads two, negotiated on load:
//
// v2 (the format written): one zero-copy columnar segment file
// (segments.sg2) holding the already-partitioned corpus — flat
// little-endian point/lo/hi arrays, the MBR directory, and the packed
// STR leaf grouping of the R*-tree, all checksummed per section. Load
// maps (or one-shot reads) the file and aliases the Segmented
// Flat/Lo/Hi arrays in place, then packs the tree bottom-up from the
// stored leaves while the points section is checked on another goroutine:
// no per-sequence deserialization and no re-partitioning, and no database
// is returned before the check passes.
// See segment.go for the exact layout. A single-node store (Save, Build)
// also carries the packed tree's pages as index.db, which a FileIndex
// load reattaches; the shard directories of a sharded store carry none.
//
// v1 (read-only legacy): sequence data in seqio records plus a metadata
// file, as directories written before v2 hold. Load re-partitions every
// sequence (core.PartitionAll) and from there opens as v2 does —
// partitioning is deterministic, so the reconstructed database is
// equivalent, but the rebuild decodes and re-segments every point. Saving
// a loaded v1 store rewrites it as v2.
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
	// Quantized is accepted and has no effect, as
	// core.Options.QuantizedMBR; it is kept while `bench/` passes it.
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

// writeDirV2 writes one v2 database directory (meta and the columnar
// segment file) into dir, which must already exist; all files are
// fsynced. Empty segment sets write only the meta file. With bake set it
// also writes the packed R*-tree pages as index.db: that makes a
// single-node FileIndex open a pure reattach, with no partitioning and no
// tree build. Sharded stores do not bake, since no sharded load reads
// them (LoadShardedWith builds its index files afresh).
func writeDirV2(dir string, dim int, cfg core.PartitionConfig, segs []*core.Segmented, bake bool) error {
	if len(segs) > 0 {
		leaves, treeM, err := packLeaves(segs, dim)
		if err != nil {
			return err
		}
		if err := writeSegmentsFile(filepath.Join(dir, segFile), dim, cfg, segs, leaves, treeM); err != nil {
			return err
		}
		if bake {
			if err := writeIndexV2(dir, dim, cfg, segs, leaves, treeM); err != nil {
				return err
			}
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
	if _, err := db.AddAllSegmented(detached, leaves, treeM); err != nil {
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

// dirCorpus is one database directory's contents in segment form.
type dirCorpus struct {
	dim    int
	cfg    core.PartitionConfig
	segs   []*core.Segmented
	leaves [][]rtree.Ref
	treeM  int
	// points is the check of a v2 segment file's points section, still
	// running when loadDirCorpus returns: segs may be built over but not
	// handed on before points.wait passes. Nil for a v1 or empty directory.
	points *pointsCheck
}

// loadDirCorpus reads one database directory in either format and
// returns its contents in segment form. The format is sniffed from the
// directory (a segment file wins): v2 directories alias their segment
// file, whose points check is left running (openSegmentsFile); v1
// directories are re-partitioned in parallel (core.PartitionAll). Empty
// directories return nil segments.
func loadDirCorpus(dir string) (dirCorpus, error) {
	dim, cfg, err := readMeta(dir)
	if err != nil {
		return dirCorpus{}, err
	}
	segPath := filepath.Join(dir, segFile)
	if _, statErr := os.Stat(segPath); statErr == nil {
		c, pc, err := openSegmentsFile(segPath)
		if err != nil {
			return dirCorpus{}, err
		}
		if c.Dim != dim || c.Config != cfg {
			return dirCorpus{}, pc.finish(fmt.Errorf("%w: meta and segment file disagree", ErrBadStore), nil)
		}
		return dirCorpus{dim: dim, cfg: cfg, segs: c.Segs, leaves: c.Leaves, treeM: c.TreeM, points: pc}, nil
	}
	path := filepath.Join(dir, seqFile)
	if _, statErr := os.Stat(path); statErr != nil {
		if os.IsNotExist(statErr) {
			return dirCorpus{dim: dim, cfg: cfg}, nil // empty shard
		}
		return dirCorpus{}, fmt.Errorf("%w: %v", ErrBadStore, statErr)
	}
	seqs, err := seqio.ReadFile(path)
	var segs []*core.Segmented
	if err == nil {
		segs, err = core.PartitionAll(seqs, dim, cfg)
	}
	if err != nil {
		return dirCorpus{}, fmt.Errorf("%w: %v", ErrBadStore, err)
	}
	return dirCorpus{dim: dim, cfg: cfg, segs: segs}, nil
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
		return writeDirV2(tmp, db.Dim(), db.PartitionConfig(), segs, true)
	})
}

// Load reads a store directory (either format) and rebuilds the
// database. With fileIndex set, the index pages live in <dir>/index.db;
// otherwise the index is in memory. Sharded stores (written by
// SaveSharded) are rejected with a pointer to LoadSharded.
func Load(dir string, fileIndex bool) (*core.Database, error) {
	return LoadWith(dir, LoadOptions{FileIndex: fileIndex})
}

// LoadWith is Load with full options. Either format opens through
// loadDirCorpus: a v2 directory aliases its segment file and packs the
// tree from the stored leaves while its points section is checked, a v1
// directory is re-partitioned in parallel and STR bulk-loaded. With
// FileIndex an index.db a previous load or Save left beside the data is
// reattached when it matches the corpus, and rebuilt otherwise; that
// build waits for the points check first, so a store the open refuses
// keeps its index.db. The database is returned only once the points check
// has passed.
func LoadWith(dir string, o LoadOptions) (*core.Database, error) {
	if IsSharded(dir) {
		return nil, fmt.Errorf("%w: %s is a sharded store; use LoadSharded", ErrBadStore, dir)
	}
	d, err := loadDirCorpus(dir)
	if err != nil {
		return nil, err
	}
	var db *core.Database
	if !o.FileIndex || d.points.wait() == nil {
		db, err = buildDir(d, dir, o)
	}
	if err := d.points.finish(err, func() {
		if db != nil {
			db.Close()
		}
	}); err != nil {
		return nil, err
	}
	return db, nil
}

// buildDir builds the database of one directory's corpus, as LoadWith
// describes; on an error it returns nil, having closed what it made.
func buildDir(d dirCorpus, dir string, o LoadOptions) (*core.Database, error) {
	if len(d.segs) == 0 {
		return nil, fmt.Errorf("%w: no sequences", ErrBadStore)
	}
	opts := core.Options{Dim: d.dim, Partition: d.cfg, QuantizedMBR: o.Quantized}
	if o.FileIndex {
		opts.Path = filepath.Join(dir, indexFile)
		// Fast path: reattach to an index a previous Load already built —
		// with v2 segments aliased from the file this makes a warm
		// restart free of both partitioning and tree packing.
		if _, statErr := os.Stat(opts.Path); statErr == nil {
			if db, err := core.OpenDatabaseSegmented(opts, d.segs); err == nil {
				return db, nil
			}
			// Stale or mismatched: rebuild below.
			if err := os.RemoveAll(opts.Path); err != nil {
				return nil, err
			}
		}
	}
	db, err := core.NewDatabase(opts)
	if err != nil {
		return nil, err
	}
	if _, err := db.AddAllSegmented(d.segs, d.leaves, d.treeM); err != nil {
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
