package disk

import (
	"encoding/gob"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/kernels"
	"repro/internal/obs"
)

// TestOldSchemeEntryIsMiss: entries written under the version-1 key
// scheme (file named by the bare fingerprint, codec version 1) are
// counted misses, never hits — even when the old file sits exactly
// where the old scheme would have put the current key, or a version-1
// payload sits under the current name.
func TestOldSchemeEntryIsMiss(t *testing.T) {
	reg := obs.NewRegistry()
	store, err := New(t.TempDir(), reg)
	if err != nil {
		t.Fatal(err)
	}
	sc := kernels.Listing3(12).SCoP
	key := cache.KeyFor(sc, core.Options{})
	info, err := core.Detect(sc, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e, err := encode(info.Freeze())
	if err != nil {
		t.Fatal(err)
	}
	e.Version = 1
	writeGob := func(path string) {
		t.Helper()
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if err := gob.NewEncoder(f).Encode(e); err != nil {
			t.Fatal(err)
		}
	}

	oldName := filepath.Join(store.Dir(), fmt.Sprintf("%s-m0-p0-o0.gob", key.FP))
	writeGob(oldName)
	if _, ok := store.Load(key, sc); ok {
		t.Fatal("an entry under the version-1 file name was loaded")
	}
	if got := store.Len(); got != 0 {
		t.Fatalf("Len = %d, want 0: the old entry is not a current one", got)
	}

	writeGob(store.path(key))
	if _, ok := store.Load(key, sc); ok {
		t.Fatal("a version-1 payload was loaded under the current name")
	}

	snap := reg.Snapshot()
	if hits, misses := snap.Counter("cache.disk.hits"), snap.Counter("cache.disk.misses"); hits != 0 || misses != 2 {
		t.Fatalf("hits %d misses %d, want 0 and 2", hits, misses)
	}

	// A current store of the same result replaces the stale payload.
	store.Store(key, info)
	if _, ok := store.Load(key, sc); !ok {
		t.Fatal("current entry missed")
	}
}
