package journal

import (
	"fmt"
	"os"
	"path/filepath"
)

// AtomicWrite writes data to path through a temp-file-plus-rename in the
// same directory, fsyncing before the rename: readers observe either the
// old file or the complete new one, never a torn prefix, whatever the
// process does mid-write. Every sweep artifact writer routes through this
// helper so a crashed campaign can never leave half a JSON or CSV file
// where a result set should be. On any failure the temp file is removed —
// nothing partial is left at or near path. The file lands with mode 0644,
// what os.WriteFile(path, data, 0o644) gives under the usual umask (a
// temp file is created 0600).
func AtomicWrite(path string, data []byte) (err error) {
	dir, base := filepath.Split(path)
	if dir == "" {
		dir = "."
	}
	tmp, err := os.CreateTemp(dir, "."+base+".tmp-*")
	if err != nil {
		return fmt.Errorf("atomic write %s: %w", path, err)
	}
	name := tmp.Name()
	renamed := false
	defer func() {
		tmp.Close() // double Close after the happy path is a harmless ErrClosed
		if !renamed {
			os.Remove(name)
		}
		if err != nil {
			err = fmt.Errorf("atomic write %s: %w", path, err)
		}
	}()
	if _, err = tmp.Write(data); err != nil {
		return err
	}
	if err = tmp.Chmod(0o644); err != nil {
		return err
	}
	if err = tmp.Sync(); err != nil {
		return err
	}
	if err = tmp.Close(); err != nil {
		return err
	}
	if err = os.Rename(name, path); err != nil {
		return err
	}
	renamed = true
	return nil
}
