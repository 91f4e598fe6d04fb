package snapshot

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// TestWriteFile pins the atomic write: a successful write replaces the
// file and keeps its permissions; a failed one leaves the old file
// untouched and no temporary file behind.
func TestWriteFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f")
	put := func(s string) func(*os.File) error {
		return func(f *os.File) error {
			_, err := f.WriteString(s)
			return err
		}
	}
	if err := WriteFile(path, put("one")); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(path); err != nil || fi.Mode().Perm() != 0o644 {
		t.Fatalf("new file: %v, %v; want mode 0644", fi, err)
	}
	if err := os.Chmod(path, 0o600); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(path, put("two")); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(path); err != nil || fi.Mode().Perm() != 0o600 {
		t.Fatalf("replaced file: %v, %v; want the replaced file's mode 0600", fi, err)
	}

	boom := errors.New("boom")
	err := WriteFile(path, func(f *os.File) error {
		put("half")(f)
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("failed write returned %v, want %v", err, boom)
	}
	if b, err := os.ReadFile(path); err != nil || string(b) != "two" {
		t.Fatalf("after a failed write the file reads %q, %v; want %q", b, err, "two")
	}
	if ents, err := os.ReadDir(dir); err != nil || len(ents) != 1 {
		t.Fatalf("after a failed write the directory holds %v, %v; want only the file", ents, err)
	}
}
