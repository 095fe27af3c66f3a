package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/rtree"
	"repro/internal/shard"
)

// Sharded store layout: a shard-count record plus one single-node store
// directory per shard, each read in either format (empty shards keep
// only their meta file):
//
//	dir/
//	  shards.bin     "MDSSHRD1" + u16 shard count
//	  shard000/      meta.bin [+ sequences.mds | segments.sg2]
//	  shard001/
//	  ...
//	  index.db.shard<i>   per-shard index pages (fileIndex loads only)
//
// Placement is not serialized: it is recomputed on load from the stable
// label-hash rule, which reproduces the saved placement exactly for the
// same shard count (asserted by TestShardedSaveLoadPlacement). v2 shard
// directories additionally have their placement verified on load, so a
// shard file copied between topologies fails closed.
const (
	shardsFile     = "shards.bin"
	shardsMagic    = "MDSSHRD1"
	shardsMetaLen  = 8 + 2 // magic + count
	maxShardCount  = 1 << 12
	shardDirFormat = "shard%03d"
)

// segmentSource is satisfied by nodes that expose their live segments
// for direct columnar serialization (*core.Database).
type segmentSource interface {
	LiveSegments() []*core.Segmented
}

// IsSharded reports whether dir holds a sharded store.
func IsSharded(dir string) bool {
	_, err := os.Stat(filepath.Join(dir, shardsFile))
	return err == nil
}

// SaveSharded writes db's live sequences, configuration, and shard
// topology into dir, atomically. Individual shards may be empty; the
// database as a whole must not be.
func SaveSharded(db *shard.ShardedDB, dir string) error {
	if db.Len() == 0 {
		return errors.New("store: refusing to save an empty database")
	}
	n := db.Shards()
	dim, cfg := db.Dim(), db.PartitionConfig()
	return saveAtomic(dir, func(tmp string) error {
		for i := 0; i < n; i++ {
			sub := filepath.Join(tmp, fmt.Sprintf(shardDirFormat, i))
			if err := os.MkdirAll(sub, 0o755); err != nil {
				return err
			}
			if err := writeShardDir(sub, db.Shard(i), dim, cfg); err != nil {
				return fmt.Errorf("store: saving shard %d: %w", i, err)
			}
		}
		meta := make([]byte, shardsMetaLen)
		copy(meta[0:8], shardsMagic)
		binary.LittleEndian.PutUint16(meta[8:10], uint16(n))
		return writeFileSynced(filepath.Join(tmp, shardsFile), meta, 0o644)
	})
}

// writeShardDir serializes one shard node into sub. The node's live
// segments are written directly when it exposes them; nodes that do not
// (e.g. transactional wrappers) are re-partitioned first.
func writeShardDir(sub string, node shard.Node, dim int, cfg core.PartitionConfig) error {
	if ss, ok := node.(segmentSource); ok {
		return writeDirV2(sub, dim, cfg, ss.LiveSegments())
	}
	segs, err := buildSegments(node.Sequences(), dim, cfg)
	if err != nil {
		return err
	}
	return writeDirV2(sub, dim, cfg, segs)
}

// readShardCount parses dir's shard-count record.
func readShardCount(dir string) (int, error) {
	meta, err := os.ReadFile(filepath.Join(dir, shardsFile))
	if err != nil {
		return 0, fmt.Errorf("%w: %v", ErrBadStore, err)
	}
	if len(meta) != shardsMetaLen || string(meta[0:8]) != shardsMagic {
		return 0, fmt.Errorf("%w: bad shards file", ErrBadStore)
	}
	n := int(binary.LittleEndian.Uint16(meta[8:10]))
	if n < 1 || n > maxShardCount {
		return 0, fmt.Errorf("%w: shard count %d", ErrBadStore, n)
	}
	return n, nil
}

// LoadSharded reads a store directory and rebuilds a sharded database.
// A plain single-node store (written by Save) loads as one shard, so
// old directories keep working. With fileIndex set, each shard's index
// pages live in a file under its shard directory; otherwise indexes are
// in memory.
func LoadSharded(dir string, fileIndex bool) (*shard.ShardedDB, error) {
	return LoadShardedWith(dir, LoadOptions{FileIndex: fileIndex})
}

// LoadShardedWith is LoadSharded with full options. Each shard
// directory's format is sniffed independently: v2 shards alias their
// segment files and bulk-load their trees from the packed leaves; v1
// shards re-partition through the parallel bulk path. Either way every
// shard ingests its own saved group directly — placement is verified
// against the label-hash rule rather than recomputed sequence by
// sequence, and reproduces the saved layout for an unchanged shard
// count.
func LoadShardedWith(dir string, o LoadOptions) (*shard.ShardedDB, error) {
	n := 1
	sharded := IsSharded(dir)
	if sharded {
		var err error
		if n, err = readShardCount(dir); err != nil {
			return nil, err
		}
	}

	groups := make([][]*core.Segmented, n)
	leaves := make([][][]rtree.Ref, n)
	dim, cfg := 0, core.PartitionConfig{}
	total := 0
	for i := 0; i < n; i++ {
		sub := dir
		if sharded {
			sub = filepath.Join(dir, fmt.Sprintf(shardDirFormat, i))
		}
		d, c, segs, lv, treeM, err := loadDirCorpus(sub)
		if err != nil {
			if sharded {
				return nil, fmt.Errorf("store: loading shard %d: %w", i, err)
			}
			return nil, err
		}
		if i == 0 {
			dim, cfg = d, c
		} else if d != dim || c != cfg {
			return nil, fmt.Errorf("%w: shard %d config differs from shard 0", ErrBadStore, i)
		}
		if fanout, _, ferr := rtree.CapacityFor(0, d, 0); ferr != nil || fanout != treeM {
			lv = nil // stored grouping targets a different fanout
		}
		groups[i], leaves[i] = segs, lv
		total += len(segs)
	}
	if total == 0 {
		return nil, fmt.Errorf("%w: no sequences", ErrBadStore)
	}

	opts := core.Options{Dim: dim, Partition: cfg, QuantizedMBR: o.Quantized}
	if o.FileIndex {
		// shard.New derives "<path>.shard<i>" per shard.
		opts.Path = filepath.Join(dir, indexFile)
		for i := 0; i < n; i++ {
			path := opts.Path
			if n > 1 {
				path = fmt.Sprintf("%s.shard%d", opts.Path, i)
			}
			os.RemoveAll(path)
		}
	}
	sdb, err := shard.New(opts, n)
	if err != nil {
		return nil, err
	}
	if err := sdb.AddAllSegmented(groups, leaves); err != nil {
		sdb.Close()
		return nil, fmt.Errorf("%w: %v", ErrBadStore, err)
	}
	if o.FileIndex {
		if err := sdb.Flush(); err != nil {
			sdb.Close()
			return nil, err
		}
	}
	return sdb, nil
}
