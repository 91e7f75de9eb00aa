package archive_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mevscope/internal/archive"
	"mevscope/internal/dataset"
)

// The refusal matrix: every way a column chunk (the prices chunk
// included) or its manifest record can rot — truncation, flipped
// dictionary bytes, a stale codec version, foreign magic, a cross-linked
// or renamed column file, a zone map that disagrees with the payload it
// summarizes — must surface as an error from Read, never as a silently
// wrong dataset. The zone maps steer chunk skipping, so zone/payload
// drift in particular would corrupt query results without tripping any
// checksum.
func TestArchiveV3RefusesCorruption(t *testing.T) {
	s := world(t)
	ds := dataset.FromSim(s)

	// write lays down a pristine archive for one subtest to break.
	write := func(t *testing.T) (string, *archive.Manifest) {
		t.Helper()
		dir := t.TempDir()
		man, err := archive.Write(dir, ds, nil)
		if err != nil {
			t.Fatal(err)
		}
		return dir, man
	}

	// column finds the first non-empty chunk of the named column.
	column := func(t *testing.T, man *archive.Manifest, name string) archive.ColumnInfo {
		t.Helper()
		for _, seg := range man.Segments {
			for _, ci := range seg.Columns {
				if ci.Name == name && ci.File.Count > 0 {
					return ci
				}
			}
		}
		t.Fatalf("archive has no non-empty %q chunk", name)
		return archive.ColumnInfo{}
	}

	// tamper rewrites a chunk file in place through fn.
	tamper := func(t *testing.T, dir string, fi archive.FileInfo, fn func([]byte) []byte) {
		t.Helper()
		path := filepath.Join(dir, filepath.FromSlash(fi.Name))
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, fn(raw), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// rewriteManifest round-trips manifest.json through fn, so a subtest
	// can drift a zone map or cross-link a chunk record while every file
	// on disk stays bit-perfect.
	rewriteManifest := func(t *testing.T, dir string, fn func(*archive.Manifest)) {
		t.Helper()
		path := filepath.Join(dir, archive.ManifestName)
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var man archive.Manifest
		if err := json.Unmarshal(raw, &man); err != nil {
			t.Fatal(err)
		}
		fn(&man)
		out, err := json.Marshal(&man)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, out, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// mutateColumn applies fn to the manifest record rewriteManifest
	// loaded that matches the given chunk.
	mutateColumn := func(man *archive.Manifest, ci archive.ColumnInfo, fn func(*archive.ColumnInfo)) {
		for i := range man.Segments {
			for j := range man.Segments[i].Columns {
				if man.Segments[i].Columns[j].File.Name == ci.File.Name {
					fn(&man.Segments[i].Columns[j])
					return
				}
			}
		}
	}

	refuse := func(t *testing.T, dir, want string) {
		t.Helper()
		_, _, err := archive.Read(dir)
		if err == nil {
			t.Fatal("corrupted archive read succeeded")
		}
		if !strings.Contains(err.Error(), want) {
			t.Errorf("refusal error = %v; want mention of %q", err, want)
		}
	}

	// refusePrices expects both readers of the prices chunk — a full
	// Read and the shared restore behind cold serve builds — to refuse.
	refusePrices := func(t *testing.T, dir, want string) {
		t.Helper()
		refuse(t, dir, want)
		man, err := archive.ReadManifest(dir)
		if err != nil {
			t.Fatal(err)
		}
		_, last := man.Window()
		_, err = archive.RestoreShared(dir, man, last, archive.ReadOptions{})
		if err == nil {
			t.Fatal("shared restore over a corrupt prices chunk succeeded")
		}
		if !strings.Contains(err.Error(), want) {
			t.Errorf("shared restore refusal error = %v; want mention of %q", err, want)
		}
	}

	t.Run("truncated chunk", func(t *testing.T) {
		dir, man := write(t)
		tamper(t, dir, column(t, man, archive.ColHeaders).File, func(raw []byte) []byte {
			return raw[:len(raw)*2/3]
		})
		refuse(t, dir, "archive:")
	})

	t.Run("bit-flipped dictionary", func(t *testing.T) {
		dir, man := write(t)
		ci := column(t, man, archive.ColTxs)
		tamper(t, dir, ci.File, func(raw []byte) []byte {
			// Past the plain chunk header and the gzip header: deflate
			// data whose first bytes encode the address dictionary.
			raw[6+len(archive.ColTxs)+16] ^= 0x10
			return raw
		})
		refuse(t, dir, "archive:")
	})

	t.Run("stale codec version byte", func(t *testing.T) {
		dir, man := write(t)
		tamper(t, dir, column(t, man, archive.ColFlashbots).File, func(raw []byte) []byte {
			raw[4] = 0x02
			return raw
		})
		refuse(t, dir, "unsupported chunk codec version")
	})

	t.Run("bad magic", func(t *testing.T) {
		dir, man := write(t)
		tamper(t, dir, column(t, man, archive.ColLogs).File, func(raw []byte) []byte {
			copy(raw, "XCOL")
			return raw
		})
		refuse(t, dir, "not a v3 column chunk")
	})

	t.Run("cross-linked column file", func(t *testing.T) {
		// The manifest's headers record pointed at the (intact, checksum-
		// clean) txs chunk: the embedded column name is the only guard.
		dir, man := write(t)
		hdr := column(t, man, archive.ColHeaders)
		txs := column(t, man, archive.ColTxs)
		rewriteManifest(t, dir, func(m *archive.Manifest) {
			mutateColumn(m, hdr, func(ci *archive.ColumnInfo) { ci.File = txs.File })
		})
		refuse(t, dir, `holds column "txs"`)
	})

	t.Run("zone map block disagreement", func(t *testing.T) {
		dir, man := write(t)
		hdr := column(t, man, archive.ColHeaders)
		rewriteManifest(t, dir, func(m *archive.Manifest) {
			mutateColumn(m, hdr, func(ci *archive.ColumnInfo) { ci.MinBlock++ })
		})
		refuse(t, dir, "zone map disagrees with payload")
	})

	t.Run("zone map gas disagreement", func(t *testing.T) {
		dir, man := write(t)
		txs := column(t, man, archive.ColTxs)
		rewriteManifest(t, dir, func(m *archive.Manifest) {
			mutateColumn(m, txs, func(ci *archive.ColumnInfo) { ci.MaxGas++ })
		})
		refuse(t, dir, "zone map disagrees with payload")
	})

	t.Run("zone map month disagreement", func(t *testing.T) {
		dir, man := write(t)
		hdr := column(t, man, archive.ColHeaders)
		rewriteManifest(t, dir, func(m *archive.Manifest) {
			mutateColumn(m, hdr, func(ci *archive.ColumnInfo) { ci.Month++ })
		})
		refuse(t, dir, "disagrees with segment")
	})

	t.Run("truncated prices chunk", func(t *testing.T) {
		dir, man := write(t)
		tamper(t, dir, man.Prices, func(raw []byte) []byte {
			return raw[:len(raw)*2/3]
		})
		refusePrices(t, dir, "prices.col")
	})

	t.Run("bit-flipped prices chunk", func(t *testing.T) {
		dir, man := write(t)
		tamper(t, dir, man.Prices, func(raw []byte) []byte {
			raw[len(raw)/2] ^= 0x10
			return raw
		})
		refusePrices(t, dir, "prices.col")
	})

	t.Run("prices chunk with a foreign column name", func(t *testing.T) {
		// Rename the column in the plain header and re-seal the manifest
		// record over the edited bytes: the checksum passes, so the
		// embedded column name is the only guard.
		dir, man := write(t)
		tamper(t, dir, man.Prices, func(raw []byte) []byte {
			copy(raw[6:], "prizes")
			return raw
		})
		raw, err := os.ReadFile(filepath.Join(dir, filepath.FromSlash(man.Prices.Name)))
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(raw)
		rewriteManifest(t, dir, func(m *archive.Manifest) {
			m.Prices.SHA256 = hex.EncodeToString(sum[:])
		})
		refusePrices(t, dir, `holds column "prizes"`)
	})
}
