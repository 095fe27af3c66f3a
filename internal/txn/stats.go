package txn

import (
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// statsCounters are the committer/checkpoint counters behind Stats,
// kept as atomics so Stats() needs no coordination with the committer.
type statsCounters struct {
	commits     atomic.Uint64
	records     atomic.Uint64
	groups      atomic.Uint64
	fsyncs      atomic.Uint64
	walBytes    atomic.Uint64
	checkpoints atomic.Uint64
	ckptErrs    atomic.Uint64
	recovered   atomic.Uint64
	snapshots   atomic.Int64
	// tailSince is the unix-nano arrival time of the oldest commit not
	// yet folded into the base (0 = delta empty).
	tailSince     atomic.Int64
	lastCkptNanos atomic.Int64
}

// Stats is a point-in-time summary of the transaction layer, served by
// the /txnz endpoint.
type Stats struct {
	// Epoch is the published MVCC state's version (bumps per commit group).
	Epoch uint64 `json:"epoch"`
	// LastLSN is the WAL position of the newest committed record.
	LastLSN uint64 `json:"last_lsn"`
	// CheckpointLSN is the WAL position the promoted base snapshot holds,
	// where recovery starts replaying. Folds that persist nothing leave
	// it behind LastLSN.
	CheckpointLSN uint64 `json:"checkpoint_lsn"`
	// Live is the number of visible sequences.
	Live int `json:"live"`
	// DeltaAdds is the number of unfolded added sequences a query's
	// linear scan covers.
	DeltaAdds int `json:"delta_adds"`
	// DeltaOverlays is the number of distinct base sequences the delta
	// supersedes with appended/replaced versions.
	DeltaOverlays int `json:"delta_overlays"`
	// DeltaRemoved is the number of unfolded removals.
	DeltaRemoved int `json:"delta_removed"`
	// Commits counts acknowledged commit requests.
	Commits uint64 `json:"commits"`
	// Records counts the WAL records those commits produced.
	Records uint64 `json:"records"`
	// Groups counts fsync batches (group commits).
	Groups uint64 `json:"groups"`
	// Fsyncs counts actual fsync calls (0 under NoFsync).
	Fsyncs uint64 `json:"fsyncs"`
	// MeanGroupSize is Commits/Groups — how well group commit batches.
	MeanGroupSize float64 `json:"mean_group_size"`
	// WALBytes counts payload bytes appended over the database's life.
	WALBytes uint64 `json:"wal_bytes"`
	// WALSizeBytes is the current log file size (drops when a checkpoint
	// persists a snapshot and compacts the log).
	WALSizeBytes int64 `json:"wal_size_bytes"`
	// Checkpoints counts completed delta folds.
	Checkpoints uint64 `json:"checkpoints"`
	// CheckpointErrors counts folds that failed and left the delta
	// unfolded (retried on the next trigger).
	CheckpointErrors uint64 `json:"checkpoint_errors"`
	// LastCheckpoint is the most recent fold's duration.
	LastCheckpoint time.Duration `json:"last_checkpoint_ns"`
	// RecoveredRecords is how many WAL records Open replayed.
	RecoveredRecords uint64 `json:"recovered_records"`
	// SnapshotsPinned is the number of currently held read snapshots.
	SnapshotsPinned int64 `json:"snapshots_pinned"`
	// TailAge is the age of the oldest unfolded commit (0 = none): how
	// long the delta the queries scan has been growing.
	TailAge time.Duration `json:"tail_age_ns"`
}

// Stats returns a point-in-time summary of the transaction layer.
func (db *DB) Stats() Stats {
	st := db.cur.Load()
	s := Stats{
		Epoch:            st.epoch,
		LastLSN:          st.lastLSN,
		CheckpointLSN:    db.ckptLSN.Load(),
		Live:             st.live,
		DeltaAdds:        len(st.adds),
		DeltaOverlays:    len(st.overlays),
		DeltaRemoved:     len(st.removed),
		Commits:          db.stats.commits.Load(),
		Records:          db.stats.records.Load(),
		Groups:           db.stats.groups.Load(),
		Fsyncs:           db.stats.fsyncs.Load(),
		WALBytes:         db.stats.walBytes.Load(),
		Checkpoints:      db.stats.checkpoints.Load(),
		CheckpointErrors: db.stats.ckptErrs.Load(),
		LastCheckpoint:   time.Duration(db.stats.lastCkptNanos.Load()),
		RecoveredRecords: db.stats.recovered.Load(),
		SnapshotsPinned:  db.stats.snapshots.Load(),
	}
	if s.Groups > 0 {
		s.MeanGroupSize = float64(s.Commits) / float64(s.Groups)
	}
	if since := db.stats.tailSince.Load(); since != 0 {
		s.TailAge = time.Since(time.Unix(0, since))
	}
	if db.log != nil {
		s.WALSizeBytes = db.log.Size()
	}
	if m := db.met.Load(); m != nil {
		m.tailAge.Set(s.TailAge.Seconds())
	}
	return s
}

// metrics are the obs instruments the transaction layer records into.
type metrics struct {
	commitLatency *obs.Histogram
	groupSize     *obs.Histogram
	ckptSeconds   *obs.Histogram
	records       *obs.Counter
	fsyncs        *obs.Counter
	walBytes      *obs.Counter
	checkpoints   *obs.Counter
	replayed      *obs.Counter
	pinned        *obs.Gauge
	tailAge       *obs.Gauge
}

// commitBuckets span sub-millisecond in-memory commits to multi-second
// stalls.
var commitBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5,
}

// groupBuckets span single-writer commits to full batches.
var groupBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}

// SetMetrics registers the transaction layer's instruments in reg (nil
// detaches) and forwards reg to the base database, and to every base a
// fold builds after it, so one registry carries both the
// mdseq_wal_*/mdseq_snapshot_* families and the core query metrics.
func (db *DB) SetMetrics(reg *obs.Registry) {
	db.ckptMu.Lock()
	db.reg = reg
	db.cur.Load().base.SetMetrics(reg)
	db.ckptMu.Unlock()
	db.register(reg)
}

// SetMetricsShard registers only the mdseq_wal_*/mdseq_snapshot_*
// instruments, each labeled {shard="i"} — for sharded deployments
// (shard.NewWithNodes over transactional nodes), where the router owns
// the query metrics and each shard's committer needs its own series.
func (db *DB) SetMetricsShard(reg *obs.Registry, shard int) {
	db.register(reg, core.ShardLabel(shard))
}

// register builds the instrument set under the given label set (nil reg
// detaches).
func (db *DB) register(reg *obs.Registry, labels ...obs.Label) {
	if reg == nil {
		db.met.Store(nil)
		return
	}
	m := &metrics{
		commitLatency: reg.Histogram("mdseq_wal_commit_seconds",
			"Commit latency from submission to durable acknowledgment.", commitBuckets, labels...),
		groupSize: reg.Histogram("mdseq_wal_group_size",
			"Commits acknowledged per fsync batch.", groupBuckets, labels...),
		ckptSeconds: reg.Histogram("mdseq_wal_checkpoint_seconds",
			"Checkpoint duration: rebuild, persist, swap, compact.", nil, labels...),
		records: reg.Counter("mdseq_wal_records_total",
			"WAL records appended.", labels...),
		fsyncs: reg.Counter("mdseq_wal_fsyncs_total",
			"WAL fsync calls.", labels...),
		walBytes: reg.Counter("mdseq_wal_bytes_total",
			"WAL payload bytes appended.", labels...),
		checkpoints: reg.Counter("mdseq_wal_checkpoints_total",
			"Completed checkpoints (delta folds).", labels...),
		replayed: reg.Counter("mdseq_wal_recovery_replayed_total",
			"WAL records replayed by crash recovery at open.", labels...),
		pinned: reg.Gauge("mdseq_snapshot_pinned",
			"Read snapshots currently pinned.", labels...),
		tailAge: reg.Gauge("mdseq_snapshot_age_seconds",
			"Age of the oldest commit not yet folded into the base.", labels...),
	}
	// The counters start from what the database has already done — a
	// replay, or the ingest fold of a server that wires its registry after
	// opening — so they read what Stats reports. Raised to that, not added
	// to: registering twice into one registry counts nothing twice.
	seed := func(c *obs.Counter, v uint64) {
		if have := c.Value(); v > have {
			c.Add(v - have)
		}
	}
	seed(m.replayed, db.stats.recovered.Load())
	seed(m.records, db.stats.records.Load())
	seed(m.fsyncs, db.stats.fsyncs.Load())
	seed(m.walBytes, db.stats.walBytes.Load())
	seed(m.checkpoints, db.stats.checkpoints.Load())
	db.met.Store(m)
}
