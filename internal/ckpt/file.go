// Atomic, crash-safe checkpoint file I/O: temp file + fsync + rename,
// with a rotating last-good copy so a crash at ANY point — including
// mid-rename — leaves at least one loadable checkpoint on disk.
package ckpt

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/telemetry"
)

var (
	mWrites       = telemetry.GetCounter("ckpt.writes")
	mBytes        = telemetry.GetCounter("ckpt.bytes")
	mRestores     = telemetry.GetCounter("ckpt.restore_total")
	mCorrupt      = telemetry.GetCounter("ckpt.corrupt_detected")
	mFallbackLoad = telemetry.GetCounter("ckpt.fallback_loads")
)

// PrevSuffix is appended to the checkpoint path for the rotated
// last-good copy kept alongside every save.
const PrevSuffix = ".prev"

// SaveFile atomically writes ck to path:
//
//  1. encode into a temp file in the SAME directory (rename must not
//     cross filesystems),
//  2. fsync the temp file so the bytes are durable before they become
//     visible,
//  3. rotate any existing checkpoint to path+".prev" (the last-good
//     copy),
//  4. rename the temp file over path,
//  5. fsync the directory so the renames themselves are durable.
//
// A crash before (4) leaves the previous checkpoint untouched at path; a
// crash between (3) and (4) leaves it at path+".prev", which LoadFile
// falls back to. At no point is a partially written file visible under
// either name.
func SaveFile(path string, ck *Checkpoint) (err error) {
	var buf bytes.Buffer
	if err := Write(&buf, ck); err != nil {
		return err
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("ckpt: creating temp file: %w", err)
	}
	tmpName := tmp.Name()
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmpName)
		}
	}()
	if _, err = tmp.Write(buf.Bytes()); err != nil {
		return fmt.Errorf("ckpt: writing %s: %w", tmpName, err)
	}
	if err = tmp.Sync(); err != nil {
		return fmt.Errorf("ckpt: fsync %s: %w", tmpName, err)
	}
	if err = tmp.Close(); err != nil {
		return fmt.Errorf("ckpt: closing %s: %w", tmpName, err)
	}
	// Rotate the current checkpoint to last-good before the new one
	// takes its name. Absence of a current file is fine (first save).
	if _, statErr := os.Stat(path); statErr == nil {
		if err = os.Rename(path, path+PrevSuffix); err != nil {
			return fmt.Errorf("ckpt: rotating last-good: %w", err)
		}
	}
	if err = os.Rename(tmpName, path); err != nil {
		return fmt.Errorf("ckpt: publishing %s: %w", path, err)
	}
	if d, dirErr := os.Open(dir); dirErr == nil {
		d.Sync()
		d.Close()
	}
	if telemetry.Enabled() {
		mWrites.Inc()
		mBytes.Add(int64(buf.Len()))
	}
	return nil
}

// LoadFile reads the checkpoint at path, falling back to the rotated
// last-good copy (path+".prev") when the primary is missing or fails
// integrity checks. fromFallback reports whether the fallback was used;
// the error combines both failures when neither file loads.
func LoadFile(path string) (ck *Checkpoint, fromFallback bool, err error) {
	ck, primaryErr := loadOne(path)
	if primaryErr == nil {
		mRestores.Inc()
		return ck, false, nil
	}
	if !os.IsNotExist(primaryErr) {
		mCorrupt.Inc()
	}
	ck, prevErr := loadOne(path + PrevSuffix)
	if prevErr == nil {
		mRestores.Inc()
		mFallbackLoad.Inc()
		return ck, true, nil
	}
	return nil, false, fmt.Errorf("ckpt: %s unreadable (%v); last-good %s%s unreadable (%v)",
		path, primaryErr, path, PrevSuffix, prevErr)
}

// loadOne reads and fully verifies a single checkpoint file.
func loadOne(path string) (*Checkpoint, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f)
}
