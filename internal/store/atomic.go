package store

import (
	"fmt"
	"os"
	"path/filepath"
)

// Crash-safe directory replacement. A store directory is rewritten by
// staging its full replacement as a sibling ("<dir>.tmp", every file
// fsynced, the directory fsynced), then swapping it in with two renames
// through "<dir>.old" and fsyncing the parent. A crash therefore leaves
// one of: the old directory intact (stale .tmp ignored by Load, removed
// by the next Save), the new directory intact, or — in the instant
// between the two renames — the old directory complete under the .old
// name (recovery: rename it back; see OPERATIONS.md). No state mixes
// old and new files, which is what makes the two-file v2 layout
// (meta.bin + segments.sg2) torn-write safe.

// writeFileSynced writes data to path and fsyncs the file before
// closing; nothing may treat the file as saved until it is on disk.
func writeFileSynced(path string, data []byte, perm os.FileMode) error {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, perm)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// syncFile fsyncs an already-written file by path (for writers like
// the index pager that do not sync themselves).
func syncFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	err = f.Sync()
	f.Close()
	return err
}

// syncDir fsyncs a directory so entries created or renamed in it are
// durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	d.Close()
	return err
}

// syncTree fsyncs dir and every subdirectory beneath it (files are
// already synced individually by the writers).
func syncTree(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if e.IsDir() {
			if err := syncTree(filepath.Join(dir, e.Name())); err != nil {
				return err
			}
		}
	}
	return syncDir(dir)
}

// saveAtomic replaces dir with a freshly staged directory: fill writes
// the complete contents into a sibling temp directory (individual files
// fsynced by their writers), which is then synced and swapped in.
func saveAtomic(dir string, fill func(tmp string) error) error {
	dir = filepath.Clean(dir)
	tmp, old := dir+".tmp", dir+".old"
	// Clear leftovers of an earlier crashed or interrupted save.
	if err := os.RemoveAll(tmp); err != nil {
		return err
	}
	if err := os.RemoveAll(old); err != nil {
		return err
	}
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return err
	}
	if err := fill(tmp); err != nil {
		os.RemoveAll(tmp)
		return err
	}
	if err := syncTree(tmp); err != nil {
		os.RemoveAll(tmp)
		return err
	}
	if _, err := os.Stat(dir); err == nil {
		if err := os.Rename(dir, old); err != nil {
			return err
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	if err := os.Rename(tmp, dir); err != nil {
		// Put the previous contents back so a failed save is a no-op.
		os.Rename(old, dir)
		return fmt.Errorf("store: committing %s: %w", dir, err)
	}
	if err := syncDir(filepath.Dir(dir)); err != nil {
		return err
	}
	return os.RemoveAll(old)
}
