package snapshot

import (
	"os"
	"path/filepath"
)

// WriteFile writes the file at path atomically: write fills a
// temporary file in the same directory, which is synced and then
// renamed over path only after every step succeeded, so a reader never
// observes a half-written file and a crash leaves either the old file
// or the complete new one. The file keeps the permissions of the file
// it replaces (0644 for a new one), not the temporary file's 0600, so
// writing and reading processes can run as different users. On failure
// the temporary file is removed and path is untouched.
func WriteFile(path string, write func(*os.File) error) error {
	f, err := os.CreateTemp(filepath.Dir(path), ".snap-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	mode := os.FileMode(0o644)
	if fi, err := os.Stat(path); err == nil {
		mode = fi.Mode().Perm()
	}
	werr := f.Chmod(mode)
	if werr == nil {
		werr = write(f)
	}
	if werr == nil {
		// Data must be durable before the rename publishes it —
		// otherwise a crash can leave the rename on disk ahead of the
		// bytes, replacing a good file with a truncated one.
		werr = f.Sync()
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = os.Rename(tmp, path)
	}
	if werr != nil {
		os.Remove(tmp)
		return werr
	}
	// Best-effort directory sync makes the rename itself durable.
	if d, err := os.Open(filepath.Dir(path)); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}
