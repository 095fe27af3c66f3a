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
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/pager"
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

// drainInterval is how often a draining checkpoint re-polls the old
// generation's pin count.
const drainInterval = 200 * time.Microsecond

// Checkpoint folds the current delta into the base database, persists
// an id-preserving base snapshot (durable mode), compacts the WAL to
// the records after it, and publishes a rebased (empty-delta) state.
// Readers are never blocked: they keep querying throughout — the only
// wait is the checkpoint's own drain of snapshots taken before the fold
// point, which must be released before the base may change under them.
// Concurrent commits keep flowing; they land in the post-fold delta.
// The automatic checkpoints of Options.CheckpointEvery fold the same
// way but persist only when the WAL has outgrown the last snapshot.
func (db *DB) Checkpoint() error {
	return db.CheckpointCtx(context.Background())
}

// CheckpointCtx is Checkpoint recording an observability span when ctx
// carries an obs.Trace: duration, the delta size folded, and the epoch
// the fold cut at. The context does not cancel the checkpoint — a fold
// in progress always runs to completion or failure.
func (db *DB) CheckpointCtx(ctx context.Context) error {
	tr := obs.FromContext(ctx)
	if tr != nil {
		t0 := time.Now()
		cut := db.cur.Load()
		err := db.checkpoint(true)
		tr.RecordSpan(obs.SpanFromContext(ctx), "checkpoint", time.Since(t0),
			obs.Int64("snapshot_epoch", int64(cut.epoch)),
			obs.Int("delta_len", cut.deltaLen()),
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
// it replays any tail.
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

	// Retire every snapshot older than the cut. Snapshots taken from
	// here on observe states ≥ cut, whose overlay/removed sets cover
	// everything this fold changes in the base — their read filters keep
	// them consistent mid-fold (see view.dropBase). Snapshots from
	// before might lack an overlay the fold is about to apply, so they
	// must finish first.
	drainStart := time.Now()
	gen := db.pinGen.Load()
	db.pinGen.Store(gen + 1)
	for db.pins[gen&1].Load() > 0 {
		time.Sleep(drainInterval)
	}
	db.stats.drainNanos.Add(time.Since(drainStart).Nanoseconds())

	if err := db.fold(cut); err != nil {
		db.stats.ckptErrs.Add(1)
		return fmt.Errorf("txn: checkpoint fold: %w", err)
	}
	wantNext := cut.baseNext + uint32(len(cut.adds))
	if got := uint32(db.base.DirLen()); got != wantNext {
		db.stats.ckptErrs.Add(1)
		return fmt.Errorf("txn: checkpoint fold id drift: base next id %d, want %d", got, wantNext)
	}
	// Without a log there is nothing to write: every fold is the recovery
	// point.
	persist := db.log == nil || force || db.log.Size() >= db.snapBytes
	if persist && db.log != nil {
		if err := db.persistSnapshot(cut.lastLSN); err != nil {
			db.stats.ckptErrs.Add(1)
			return fmt.Errorf("txn: checkpoint persist: %w", err)
		}
	}

	req := &commitReq{resp: make(chan commitRes, 1), rebase: &rebaseReq{
		cutAdds:     len(cut.adds),
		cutOverlays: len(cut.overlays),
		cutRemoved:  len(cut.removed),
		cutLSN:      cut.lastLSN,
		newBaseNext: wantNext,
		persisted:   persist,
	}}
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

// fold applies the cut state's delta to the base database, op by op
// (each op takes the base write lock briefly, interleaving with
// readers). Adds are applied in commit order so the base assigns
// exactly the ids the transaction layer already promised; an add that
// was later removed folds as a tombstone so ids after it keep their
// position. The fold is idempotent: a retry after a mid-fold error
// skips the already-applied prefix.
func (db *DB) fold(cut *state) error {
	v := buildView(cut)
	already := db.base.DirLen() - int(cut.baseNext)
	if already < 0 {
		return fmt.Errorf("txn: base shrank below fold point (%d < %d)", db.base.DirLen(), cut.baseNext)
	}
	for i := already; i < len(cut.adds); i++ {
		id := cut.baseNext + uint32(i)
		if _, dead := v.removed[id]; dead {
			tid, err := db.base.AddTombstone()
			if err != nil {
				return err
			}
			if tid != id {
				return fmt.Errorf("txn: fold assigned id %d, want %d", tid, id)
			}
			continue
		}
		g := cut.adds[i]
		if ng, ok := v.overlay[id]; ok {
			g = ng
		}
		gid, err := db.base.AddSegmented(detach(g))
		if err != nil {
			return err
		}
		if gid != id {
			return fmt.Errorf("txn: fold assigned id %d, want %d", gid, id)
		}
	}
	// Overlaid base sequences, in ascending id order: the view's delta
	// lists them first and has already dropped removed ones (removal
	// wins), and adds follow them (folded above). A fixed order makes the
	// folded R*-tree a function of the delta alone.
	for _, ds := range v.delta {
		if ds.id >= cut.baseNext {
			break
		}
		if err := db.base.ReplaceSegmented(ds.id, detach(ds.g)); err != nil {
			return err
		}
	}
	for _, id := range cut.removed {
		if id >= cut.baseNext {
			continue // tombstoned above
		}
		if err := db.base.Remove(id); err != nil && !errors.Is(err, core.ErrUnknownSequence) {
			// Unknown id here means a retried fold already removed it.
			return err
		}
	}
	return nil
}

// detach returns a shallow copy of g with its own Sequence header. The
// base stamps Seq.ID on whatever it is handed; folding must not let that
// write land in an object that live snapshots and the committer are
// concurrently reading. The copy's points are views of g.Flat — point i
// is Flat[i*d : (i+1)*d], capped — so a folded sequence holds its
// coordinates once: the decoded points the delta still references die
// with it. All slice data (MBRs, columnar arrays) is immutable after
// construction and stays shared.
func detach(g *core.Segmented) *core.Segmented {
	gc := *g
	sc := *g.Seq
	d := sc.Dim()
	sc.Points = make([]geom.Point, len(g.Seq.Points))
	for i := range sc.Points {
		sc.Points[i] = g.Flat[i*d : (i+1)*d : (i+1)*d]
	}
	gc.Seq = &sc
	return &gc
}

// persistSnapshot writes the post-fold base as snapshot base-<lsn> and
// promotes it via the CURRENT marker. Every file and both directory
// entries are fsynced before promotion; a crash at any point leaves
// either the old CURRENT (snapshot ignored, WAL replays) or the new one
// (complete by construction). The sequence payload is the base's
// already-partitioned columnar segments with the packed R*-tree leaf
// grouping (the store's v2 segment file), so the next open aliases them
// back with no re-partitioning. loadBase also reads the seqio payload of
// snapshots written before v2.
func (db *DB) persistSnapshot(lsn uint64) error {
	name := snapName(lsn)
	dir := filepath.Join(db.opts.Dir, name)
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	segs := db.base.LiveSegments()
	ids := make([]uint32, len(segs))
	for i, g := range segs {
		ids[i] = g.Seq.ID
	}
	if len(segs) > 0 {
		if err := store.WriteSegments(filepath.Join(dir, snapSegFile),
			db.base.Dim(), db.base.PartitionConfig(), segs); err != nil {
			return err
		}
	}
	meta := encodeSnapMeta(db.base.Dim(), db.base.PartitionConfig(), uint32(db.base.DirLen()), ids)
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
		base, err := core.NewDatabase(core.Options{Dim: opts.Dim, Partition: opts.Partition, QuantizedMBR: opts.QuantizedMBR})
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

	if segPath := filepath.Join(dir, snapSegFile); len(ids) > 0 {
		if _, statErr := os.Stat(segPath); statErr == nil {
			return loadBaseV2(segPath, dim, cfg, opts.QuantizedMBR, nextID, ids, lsn)
		}
	}

	var seqs []*core.Sequence
	if len(ids) > 0 {
		seqs, err = seqio.ReadFile(filepath.Join(dir, snapSeqFile))
		if err != nil {
			return nil, 0, fmt.Errorf("%w: %v", ErrBadDir, err)
		}
		if len(seqs) != len(ids) {
			return nil, 0, fmt.Errorf("%w: %d sequences for %d ids", ErrBadDir, len(seqs), len(ids))
		}
	}
	base, err := core.NewDatabase(core.Options{Dim: dim, Partition: cfg, QuantizedMBR: opts.QuantizedMBR})
	if err != nil {
		return nil, 0, err
	}
	if uint32(len(ids)) == nextID {
		// No holes: ids are 0..n-1 in order, the bulk path applies.
		if len(seqs) > 0 {
			if _, err := base.AddAll(seqs); err != nil {
				base.Close()
				return nil, 0, err
			}
		}
		return base, lsn, nil
	}
	k := 0
	for id := uint32(0); id < nextID; id++ {
		if k < len(ids) && ids[k] == id {
			g, err := core.NewSegmented(seqs[k], cfg)
			if err != nil {
				base.Close()
				return nil, 0, err
			}
			got, err := base.AddSegmented(g)
			if err != nil {
				base.Close()
				return nil, 0, err
			}
			if got != id {
				base.Close()
				return nil, 0, fmt.Errorf("%w: snapshot ids not ascending", ErrBadDir)
			}
			k++
			continue
		}
		if _, err := base.AddTombstone(); err != nil {
			base.Close()
			return nil, 0, err
		}
	}
	if k != len(ids) {
		base.Close()
		return nil, 0, fmt.Errorf("%w: snapshot ids exceed next id", ErrBadDir)
	}
	return base, lsn, nil
}

// loadBaseV2 rebuilds the base from a v2 (columnar segment) snapshot:
// the file's already-partitioned segments are aliased straight into the
// database — no re-partitioning — and, when the id layout has no holes,
// the R*-tree is packed bottom-up from the stored leaf grouping. With
// holes (removed ids), segments and tombstones are interleaved per slot
// to reproduce the exact directory layout; the packed leaves are keyed
// by dense position, so they do not apply there.
func loadBaseV2(path string, dim int, cfg core.PartitionConfig, quant bool, nextID uint32, ids []uint32, lsn uint64) (*core.Database, uint64, error) {
	c, err := store.ReadSegments(path)
	if err != nil {
		return nil, 0, fmt.Errorf("%w: %v", ErrBadDir, err)
	}
	if c.Dim != dim || c.Config != cfg || len(c.Segs) != len(ids) {
		return nil, 0, fmt.Errorf("%w: snapshot segments disagree with meta", ErrBadDir)
	}
	base, err := core.NewDatabase(core.Options{Dim: dim, Partition: cfg, QuantizedMBR: quant})
	if err != nil {
		return nil, 0, err
	}
	if uint32(len(ids)) == nextID {
		leaves := c.Leaves
		if c.TreeM != base.IndexFanout() {
			leaves = nil
		}
		if _, err := base.AddAllSegmented(c.Segs, leaves); err != nil {
			base.Close()
			return nil, 0, fmt.Errorf("%w: %v", ErrBadDir, err)
		}
		return base, lsn, nil
	}
	k := 0
	for id := uint32(0); id < nextID; id++ {
		if k < len(ids) && ids[k] == id {
			got, err := base.AddSegmented(c.Segs[k])
			if err != nil {
				base.Close()
				return nil, 0, fmt.Errorf("%w: %v", ErrBadDir, err)
			}
			if got != id {
				base.Close()
				return nil, 0, fmt.Errorf("%w: snapshot ids not ascending", ErrBadDir)
			}
			k++
			continue
		}
		if _, err := base.AddTombstone(); err != nil {
			base.Close()
			return nil, 0, err
		}
	}
	if k != len(ids) {
		base.Close()
		return nil, 0, fmt.Errorf("%w: snapshot ids exceed next id", ErrBadDir)
	}
	return base, lsn, nil
}

// openLog opens the WAL and replays the records after the snapshot into
// the delta state, restoring every acknowledged commit the snapshot
// predates, and places each in the log for compaction. Runs before the
// committer starts, so it may mutate the initial state in place.
func (db *DB) openLog() error {
	st := db.cur.Load()
	ckptLSN := db.ckptLSN.Load()
	maxLSN := ckptLSN
	replayed := 0
	end := pager.LogHeaderSize
	log, err := pager.OpenLog(filepath.Join(db.opts.Dir, walFile), func(payload []byte) error {
		end += pager.LogFrameSize + int64(len(payload))
		lsn, ops, err := decodeRecord(payload, db.base.Dim())
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
