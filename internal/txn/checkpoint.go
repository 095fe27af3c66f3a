package txn

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/pager"
	"repro/internal/rtree"
	"repro/internal/seqio"
	"repro/internal/store"
)

// Durability directory layout:
//
//	<Dir>/txn.wal          record WAL (pager.Log)
//	<Dir>/base-<lsn>/      id-preserving base snapshot at checkpoint lsn
//	<Dir>/CURRENT          name of the live snapshot dir (tmp+rename)
//
// A snapshot directory is meaningful only once CURRENT names it, so a
// crash during checkpointing leaves the previous snapshot + full WAL —
// never a half-promoted state.
const (
	walFile     = "txn.wal"
	currentFile = "CURRENT"
	snapPrefix  = "base-"
	snapSeqFile = "sequences.mds" // seqio payload of snapshots written before v2; read only
	snapSegFile = "segments.sg2"
	snapMeta    = "meta.bin"
)

// Exists reports whether dir holds a node's durability files (a WAL or a
// promoted snapshot) at its top level.
func Exists(dir string) bool {
	for _, name := range []string{walFile, currentFile} {
		if _, err := os.Stat(filepath.Join(dir, name)); err == nil {
			return true
		}
	}
	return false
}

// ErrBadDir indicates a durability directory with a corrupt CURRENT
// marker or snapshot metadata.
var ErrBadDir = errors.New("txn: bad durability directory")

// Checkpoint folds the current delta into the base, persists an
// id-preserving base snapshot (durable mode), compacts the WAL to the
// records after it, and publishes a rebased (empty-delta) state. The fold
// rebuilds the base beside the old one (rebuild) and swaps it in with one
// publish, so it waits for no reader and readers wait for nothing:
// snapshots pinned before the swap keep the old base, later ones read the
// new. Concurrent commits keep flowing; they land in the delta after the
// cut. The automatic checkpoints of Options.CheckpointEvery fold the same
// way but persist only when the WAL has outgrown the last snapshot.
func (db *DB) Checkpoint() error {
	return db.CheckpointCtx(context.Background())
}

// CheckpointCtx is Checkpoint recording an observability span when ctx
// carries an obs.Trace: duration, the delta size folded, the size of the
// base it was folded into (a fold costs in proportion to it), and the
// epoch the fold cut at. The context does not cancel the checkpoint — a
// fold in progress always runs to completion or failure.
func (db *DB) CheckpointCtx(ctx context.Context) error {
	tr := obs.FromContext(ctx)
	if tr != nil {
		t0 := time.Now()
		cut := db.cur.Load()
		err := db.checkpoint(true)
		tr.RecordSpan(obs.SpanFromContext(ctx), "checkpoint", time.Since(t0),
			obs.Int64("snapshot_epoch", int64(cut.epoch)),
			obs.Int("delta_len", cut.deltaLen()),
			obs.Int("base_len", cut.base.Len()),
			obs.Bool("ok", err == nil))
		return err
	}
	return db.checkpoint(true)
}

// checkpoint is the checkpoint body (see Checkpoint for the contract).
// It always folds; it persists when force is set or the WAL holds at
// least as many bytes as the promoted snapshot. That rule bounds the
// snapshot bytes written by the WAL bytes written plus one snapshot, and
// recovery's replay by about one snapshot's worth of WAL. A fold-only
// checkpoint leaves CURRENT, the WAL and ckptLSN alone: recovery loads
// the old snapshot and replays the folded records into the same ids, as
// it replays any tail. A failed fold or persist publishes nothing: the
// delta stays unfolded for the next trigger.
func (db *DB) checkpoint(force bool) error {
	if db.closed.Load() {
		return ErrClosed
	}
	db.ckptMu.Lock()
	defer db.ckptMu.Unlock()
	cut := db.cur.Load()
	if cut.deltaLen() == 0 {
		return nil
	}
	t0 := time.Now()
	if db.afterCut != nil {
		db.afterCut()
	}
	nb, err := db.rebuild(cut)
	if err != nil {
		db.stats.ckptErrs.Add(1)
		return fmt.Errorf("txn: checkpoint fold: %w", err)
	}
	// Without a log there is nothing to write: every fold is the recovery
	// point.
	persist := db.log == nil || force || db.log.Size() >= db.snapBytes
	if persist && db.log != nil {
		if err := db.persistSnapshot(nb, cut.lastLSN); err != nil {
			db.stats.ckptErrs.Add(1)
			return fmt.Errorf("txn: checkpoint persist: %w", err)
		}
	}

	req := &commitReq{resp: make(chan commitRes, 1), rebase: &rebaseReq{cut: cut, base: nb, persisted: persist}}
	if err := db.submit(req); err != nil {
		return err
	}
	res := <-req.resp
	db.stats.checkpoints.Add(1)
	db.stats.lastCkptNanos.Store(time.Since(t0).Nanoseconds())
	if m := db.met.Load(); m != nil {
		m.checkpoints.Inc()
		m.ckptSeconds.Observe(time.Since(t0).Seconds())
	}
	if persist && db.log != nil {
		db.pruneSnapshots(cut.lastLSN)
	}
	// A failed WAL compaction (res.err) is reported but not fatal: the
	// promoted snapshot already makes the folded records dead on replay.
	return res.err
}

// rebuild builds the base that folds cut's delta into cut's base: a fresh
// in-memory database of the same dimension, partitioning and fanout, filled
// by one STR bulk load over the cut's directory — the old base's live
// segments, aliased; the delta's adds and overlays at their latest
// versions; removed ids as empty slots, so every id keeps its number. The
// tree is a function of the cut alone (TestFoldIsDeterministic). It reads
// the old base, which nothing writes, beside its readers, and writes
// nothing they can see: every segment it hands over already carries its
// id, so the bulk load stamps none.
func (db *DB) rebuild(cut *state) (*core.Database, error) {
	old, v := cut.base, cut.view()
	dir := make([]*core.Segmented, int(cut.baseNext)+len(cut.adds))
	for _, g := range old.LiveSegments() {
		dir[g.Seq.ID] = g
	}
	for _, id := range cut.removed {
		dir[id] = nil
	}
	for i, id := range v.ids {
		dir[id] = v.segs[i]
	}
	nb, err := core.NewDatabase(core.Options{Dim: db.opts.Dim, Partition: db.opts.Partition, MaxEntries: old.IndexFanout()})
	if err != nil {
		return nil, err
	}
	if _, err := nb.AddAllSegmented(dir, nil, 0); err != nil {
		nb.Close()
		return nil, err
	}
	nb.SetMetrics(db.reg)
	return nb, nil
}

// persistSnapshot writes the folded base as snapshot base-<lsn> and
// promotes it via the CURRENT marker. Every file and both directory
// entries are fsynced before promotion; a crash at any point leaves
// either the old CURRENT (snapshot ignored, WAL replays) or the new one
// (complete by construction). The sequence payload is the base's
// already-partitioned columnar segments with the packed R*-tree leaf
// grouping (the store's v2 segment file), so the next open aliases them
// back with no re-partitioning. loadBase also reads the seqio payload of
// snapshots written before v2.
func (db *DB) persistSnapshot(base *core.Database, lsn uint64) error {
	name := snapName(lsn)
	dir := filepath.Join(db.opts.Dir, name)
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	segs := base.LiveSegments()
	ids := make([]uint32, len(segs))
	for i, g := range segs {
		ids[i] = g.Seq.ID
	}
	if len(segs) > 0 {
		if err := store.WriteSegments(filepath.Join(dir, snapSegFile),
			base.Dim(), base.PartitionConfig(), segs); err != nil {
			return err
		}
	}
	meta := encodeSnapMeta(base.Dim(), base.PartitionConfig(), uint32(base.DirLen()), ids)
	if err := writeFileSynced(filepath.Join(dir, snapMeta), func(f *os.File) error {
		_, err := f.Write(meta)
		return err
	}); err != nil {
		return err
	}
	if err := syncDir(dir); err != nil {
		return err
	}
	// Promote: CURRENT now names the new snapshot.
	tmp := filepath.Join(db.opts.Dir, currentFile+".tmp")
	if err := writeFileSynced(tmp, func(f *os.File) error {
		_, err := f.Write([]byte(name + "\n"))
		return err
	}); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(db.opts.Dir, currentFile)); err != nil {
		return err
	}
	db.snapBytes = snapshotBytes(dir)
	return syncDir(db.opts.Dir)
}

// snapshotBytes sums the sizes of the files in a snapshot directory (0
// when it does not exist).
func snapshotBytes(dir string) int64 {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var n int64
	for _, e := range entries {
		if fi, err := e.Info(); err == nil && fi.Mode().IsRegular() {
			n += fi.Size()
		}
	}
	return n
}

// pruneSnapshots deletes snapshot directories other than the live one.
func (db *DB) pruneSnapshots(liveLSN uint64) {
	entries, err := os.ReadDir(db.opts.Dir)
	if err != nil {
		return
	}
	live := snapName(liveLSN)
	for _, e := range entries {
		if e.IsDir() && strings.HasPrefix(e.Name(), snapPrefix) && e.Name() != live {
			os.RemoveAll(filepath.Join(db.opts.Dir, e.Name()))
		}
	}
}

// snapName formats the snapshot directory name for a checkpoint LSN.
func snapName(lsn uint64) string { return fmt.Sprintf("%s%016x", snapPrefix, lsn) }

// --- open / recovery ----------------------------------------------------

// loadBase builds the base database for Open: from the CURRENT snapshot
// when one exists (reproducing the exact id layout, holes included),
// from scratch otherwise. It reconciles opts with the stored metadata.
func loadBase(opts *Options) (*core.Database, uint64, error) {
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, 0, err
	}
	cur, err := os.ReadFile(filepath.Join(opts.Dir, currentFile))
	if err != nil {
		if !os.IsNotExist(err) {
			return nil, 0, err
		}
		if opts.Dim < 1 {
			return nil, 0, errors.New("txn: Dim required to create a new database")
		}
		base, err := core.NewDatabase(core.Options{Dim: opts.Dim, Partition: opts.Partition})
		if err != nil {
			return nil, 0, err
		}
		return base, 0, nil
	}
	name := strings.TrimSpace(string(cur))
	var lsn uint64
	if _, err := fmt.Sscanf(name, snapPrefix+"%016x", &lsn); err != nil || name != snapName(lsn) {
		return nil, 0, fmt.Errorf("%w: CURRENT names %q", ErrBadDir, name)
	}
	dir := filepath.Join(opts.Dir, name)
	meta, err := os.ReadFile(filepath.Join(dir, snapMeta))
	if err != nil {
		return nil, 0, fmt.Errorf("%w: %v", ErrBadDir, err)
	}
	dim, cfg, nextID, ids, err := decodeSnapMeta(meta)
	if err != nil {
		return nil, 0, err
	}
	if opts.Dim != 0 && opts.Dim != dim {
		return nil, 0, fmt.Errorf("txn: store has dim %d, options say %d", dim, opts.Dim)
	}
	opts.Dim = dim
	opts.Partition = cfg

	bopts := core.Options{Dim: dim, Partition: cfg}
	if segPath := filepath.Join(dir, snapSegFile); len(ids) > 0 {
		if _, statErr := os.Stat(segPath); statErr == nil {
			// A v2 snapshot: the file's already-partitioned segments are
			// aliased straight into the database, with its packed leaves,
			// while the file's points section is checked beside the build.
			db, err := store.LoadSegments(segPath, func(c *store.Corpus) (*core.Database, error) {
				if c.Dim != dim || c.Config != cfg || len(c.Segs) != len(ids) {
					return nil, fmt.Errorf("%w: snapshot segments disagree with meta", ErrBadDir)
				}
				return newBase(bopts, c.Segs, c.Leaves, c.TreeM, nextID, ids)
			})
			if errors.Is(err, store.ErrBadStore) {
				err = fmt.Errorf("%w: %v", ErrBadDir, err)
			}
			if err != nil {
				return nil, 0, err
			}
			return db, lsn, nil
		}
	}

	// A v1 snapshot: sequences, partitioned here.
	var segs []*core.Segmented
	if len(ids) > 0 {
		seqs, err := seqio.ReadFile(filepath.Join(dir, snapSeqFile))
		if err != nil {
			return nil, 0, fmt.Errorf("%w: %v", ErrBadDir, err)
		}
		if len(seqs) != len(ids) {
			return nil, 0, fmt.Errorf("%w: %d sequences for %d ids", ErrBadDir, len(seqs), len(ids))
		}
		if segs, err = core.PartitionAll(seqs, dim, cfg); err != nil {
			return nil, 0, fmt.Errorf("%w: %v", ErrBadDir, err)
		}
	}
	db, err := newBase(bopts, segs, nil, 0, nextID, ids)
	return db, lsn, err
}

// newBase builds a snapshot's base database under opts, reproducing its id
// layout: segs[k] is sequence ids[k] (ascending, below nextID, as
// decodeSnapMeta checks), and every other id below nextID is a hole. The
// corpus is bulk-loaded, holes included, with leaves — the snapshot's
// packed R*-tree leaf grouping, keyed by dense position and packed for
// fanout treeM, rekeyed here by id — which core.AddAllSegmented reuses
// when that fanout is the base's.
func newBase(opts core.Options, segs []*core.Segmented, leaves [][]rtree.Ref, treeM int, nextID uint32, ids []uint32) (*core.Database, error) {
	base, err := core.NewDatabase(opts)
	if err != nil {
		return nil, err
	}
	dir := segs
	if uint32(len(ids)) != nextID {
		dir = make([]*core.Segmented, nextID)
		for k, id := range ids {
			dir[id] = segs[k]
		}
		err = rekeyLeaves(leaves, ids)
	}
	if err == nil {
		_, err = base.AddAllSegmented(dir, leaves, treeM)
	}
	if err != nil {
		base.Close()
		return nil, fmt.Errorf("%w: %v", ErrBadDir, err)
	}
	return base, nil
}

// rekeyLeaves rewrites, in place, each ref of a packed leaf grouping from
// the dense position k of a snapshot's segment to its id, ids[k]. A
// position past ids fails the load.
func rekeyLeaves(leaves [][]rtree.Ref, ids []uint32) error {
	for _, leaf := range leaves {
		for i, ref := range leaf {
			k, j := ref.Unpack()
			if int(k) >= len(ids) {
				return fmt.Errorf("packed leaf ref (%d,%d) past the snapshot's %d sequences", k, j, len(ids))
			}
			leaf[i] = rtree.PackRef(ids[k], j)
		}
	}
	return nil
}

// openLog opens the WAL and replays the records after the snapshot into
// the delta state, restoring every acknowledged commit the snapshot
// predates, and places each in the log for compaction. Runs before the
// committer starts, so it may mutate the initial state in place: nothing
// has viewed that state yet.
func (db *DB) openLog() error {
	st := db.cur.Load()
	ckptLSN := db.ckptLSN.Load()
	maxLSN := ckptLSN
	replayed := 0
	end := pager.LogHeaderSize
	log, err := pager.OpenLog(filepath.Join(db.opts.Dir, walFile), func(payload []byte) error {
		end += pager.LogFrameSize + int64(len(payload))
		lsn, ops, err := decodeRecord(payload, db.opts.Dim)
		if err != nil {
			return err
		}
		if lsn <= ckptLSN {
			return nil // already folded into the snapshot
		}
		if lsn <= maxLSN {
			return fmt.Errorf("%w: LSN %d out of order", ErrBadRecord, lsn)
		}
		if _, err := db.applyOps(st, ops); err != nil {
			return fmt.Errorf("txn: replaying record %d: %w", lsn, err)
		}
		st.epoch++
		st.lastLSN = lsn
		maxLSN = lsn
		db.tailRecs = append(db.tailRecs, tailRec{lsn: lsn, end: end})
		replayed++
		return nil
	})
	if err != nil {
		return err
	}
	db.log = log
	db.nextLSN = maxLSN + 1
	db.tailLen = len(db.tailRecs)
	if db.tailLen > 0 {
		db.stats.tailSince.Store(time.Now().UnixNano())
	}
	db.stats.recovered.Store(uint64(replayed))
	return nil
}

// writeFileSynced creates path, lets write fill it, and fsyncs before
// closing — nothing above may treat the file as written until it is on
// disk.
func writeFileSynced(path string, write func(*os.File) error) error {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// syncDir fsyncs a directory entry so renames/creates in it are durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	d.Close()
	return err
}

// Snapshot metadata format (meta.bin, little-endian):
//
//	magic "MDSTXN01" | dim u16 | queryExtent f64 | maxPoints u64 |
//	nextID u32 | count u32 | count × id u32 (ascending)
//
// ids map the sequences.mds entries (same order) to their directory
// slots; slots in [0, nextID) not listed are tombstones of removed
// sequences, preserved so replayed WAL records and client-held ids stay
// valid.
const snapMagic = "MDSTXN01"

// encodeSnapMeta serializes snapshot metadata.
func encodeSnapMeta(dim int, cfg core.PartitionConfig, nextID uint32, ids []uint32) []byte {
	buf := make([]byte, 0, 8+2+8+8+4+4+4*len(ids))
	buf = append(buf, snapMagic...)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(dim))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(cfg.QueryExtent))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(cfg.MaxPoints))
	buf = binary.LittleEndian.AppendUint32(buf, nextID)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(ids)))
	for _, id := range ids {
		buf = binary.LittleEndian.AppendUint32(buf, id)
	}
	return buf
}

// decodeSnapMeta parses snapshot metadata, validating id ordering.
func decodeSnapMeta(buf []byte) (dim int, cfg core.PartitionConfig, nextID uint32, ids []uint32, err error) {
	const fixed = 8 + 2 + 8 + 8 + 4 + 4
	if len(buf) < fixed || string(buf[:8]) != snapMagic {
		return 0, cfg, 0, nil, fmt.Errorf("%w: bad snapshot meta", ErrBadDir)
	}
	dim = int(binary.LittleEndian.Uint16(buf[8:10]))
	cfg.QueryExtent = math.Float64frombits(binary.LittleEndian.Uint64(buf[10:18]))
	cfg.MaxPoints = int(binary.LittleEndian.Uint64(buf[18:26]))
	nextID = binary.LittleEndian.Uint32(buf[26:30])
	count := binary.LittleEndian.Uint32(buf[30:34])
	if dim < 1 || count > nextID || len(buf) != fixed+4*int(count) {
		return 0, cfg, 0, nil, fmt.Errorf("%w: bad snapshot meta", ErrBadDir)
	}
	ids = make([]uint32, count)
	for i := range ids {
		ids[i] = binary.LittleEndian.Uint32(buf[fixed+4*i:])
		if ids[i] >= nextID || (i > 0 && ids[i] <= ids[i-1]) {
			return 0, cfg, 0, nil, fmt.Errorf("%w: snapshot ids not ascending", ErrBadDir)
		}
	}
	return dim, cfg, nextID, ids, nil
}
