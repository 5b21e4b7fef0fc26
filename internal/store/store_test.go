package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/chaos"
)

func key(b byte) string {
	return strings.Repeat(string([]byte{'a' + b%6}), 64)
}

func TestRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k, v := key(0), []byte(`{"result":42}`)
	if err := s.Put(k, v); err != nil {
		t.Fatal(err)
	}
	got, ok, err := s.Get(k)
	if err != nil || !ok {
		t.Fatalf("Get = %v %v %v", got, ok, err)
	}
	if string(got) != string(v) {
		t.Fatalf("payload %q, want %q", got, v)
	}
	if n, err := s.Len(); err != nil || n != 1 {
		t.Fatalf("Len = %d %v", n, err)
	}
	c := s.Counters()
	if c.Hits != 1 || c.Misses != 0 || c.Puts != 1 || c.Quarantined != 0 {
		t.Fatalf("counters %+v", c)
	}
}

func TestMiss(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	got, ok, err := s.Get(key(1))
	if err != nil || ok || got != nil {
		t.Fatalf("Get on empty store = %v %v %v", got, ok, err)
	}
	if c := s.Counters(); c.Misses != 1 {
		t.Fatalf("counters %+v", c)
	}
}

// TestReopen: durability across restart — the property the whole package
// exists for.
func TestReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	k, v := key(2), []byte("persisted")
	if err := s.Put(k, v); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, ok, err := s2.Get(k)
	if err != nil || !ok || string(got) != string(v) {
		t.Fatalf("after reopen: %q %v %v", got, ok, err)
	}
}

func TestPutIdempotent(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k := key(3)
	for i := 0; i < 3; i++ {
		if err := s.Put(k, []byte("same bytes")); err != nil {
			t.Fatal(err)
		}
	}
	if c := s.Counters(); c.Puts != 1 {
		t.Fatalf("puts = %d, want 1 (re-puts are no-ops)", c.Puts)
	}
}

func TestCorruptEntryQuarantined(t *testing.T) {
	for name, corrupt := range map[string]func([]byte) []byte{
		"flipped payload byte": func(raw []byte) []byte {
			out := append([]byte(nil), raw...)
			out[len(out)-1] ^= 0xff
			return out
		},
		"truncated": func(raw []byte) []byte { return raw[:len(raw)/2] },
		"no header": func([]byte) []byte { return []byte("garbage with no newline") },
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			k := key(4)
			if err := s.Put(k, []byte("precious result")); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, "results", k)
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, corrupt(raw), 0o644); err != nil {
				t.Fatal(err)
			}
			got, ok, err := s.Get(k)
			if err != nil || ok || got != nil {
				t.Fatalf("corrupt Get = %v %v %v, want miss", got, ok, err)
			}
			if _, err := os.Stat(filepath.Join(dir, "quarantine", k)); err != nil {
				t.Fatalf("corrupt entry not quarantined: %v", err)
			}
			if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
				t.Fatalf("corrupt entry still served from results/: %v", err)
			}
			if c := s.Counters(); c.Quarantined != 1 {
				t.Fatalf("counters %+v", c)
			}
			// Recomputation repopulates the slot.
			if err := s.Put(k, []byte("precious result")); err != nil {
				t.Fatal(err)
			}
			if _, ok, _ := s.Get(k); !ok {
				t.Fatal("repopulated entry not served")
			}
		})
	}
}

func TestInvalidKeys(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"", "../../etc/passwd", "ABCDEF", "deadbeef/x", strings.Repeat("a", 200)} {
		if err := s.Put(k, []byte("x")); err == nil {
			t.Errorf("Put accepted key %q", k)
		}
		if _, _, err := s.Get(k); err == nil {
			t.Errorf("Get accepted key %q", k)
		}
	}
}

func TestStagingDebrisSwept(t *testing.T) {
	dir := t.TempDir()
	if _, err := Open(dir); err != nil {
		t.Fatal(err)
	}
	debris := filepath.Join(dir, "tmp", "deadbeef.12345")
	if err := os.WriteFile(debris, []byte("half-written"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(debris); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("staging debris survived reopen: %v", err)
	}
}

func TestFaultInjection(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	diskErr := errors.New("disk on fire")
	f := chaos.New()
	f.Arm("store.put", 0, 1, diskErr)
	f.Arm("store.get", 0, 1, diskErr)
	s.SetFaults(f)
	k := key(5)
	if err := s.Put(k, []byte("x")); !errors.Is(err, diskErr) {
		t.Fatalf("Put err = %v, want injected fault", err)
	}
	if _, _, err := s.Get(k); !errors.Is(err, diskErr) {
		t.Fatalf("Get err = %v, want injected fault", err)
	}
	// Window exhausted: the store works again.
	if err := s.Put(k, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := s.Get(k); err != nil || !ok {
		t.Fatalf("post-fault Get = %v %v", ok, err)
	}
}

// FuzzStoreParseEntry feeds arbitrary bytes to the entry parser as a whole
// file, and also frames them as a payload and then tears (truncates) and
// bit-flips the framed entry. Nothing may panic; a file is accepted only
// when its first line is exactly "v1 <sha256 of the rest>"; a framed
// payload reads back unchanged; and no torn or bit-flipped entry is
// accepted.
func FuzzStoreParseEntry(f *testing.F) {
	f.Add([]byte("precious result"), uint16(10), uint16(3))
	f.Add([]byte(""), uint16(0), uint16(0))
	f.Add([]byte("v1 0000\nnot a checksum"), uint16(70), uint16(543))
	f.Add([]byte("line one\nline two\n"), uint16(67), uint16(536))
	f.Fuzz(func(t *testing.T, raw []byte, cut, flip uint16) {
		if payload, ok := parseEntry(raw); ok {
			sum := sha256.Sum256(payload)
			want := "v1 " + hex.EncodeToString(sum[:]) + "\n" + string(payload)
			if string(raw) != want {
				t.Fatalf("accepted %q, whose header does not frame its payload", raw)
			}
		}
		framed := append([]byte(entryHeader(raw)), raw...)
		got, ok := parseEntry(framed)
		if !ok || !bytes.Equal(got, raw) {
			t.Fatalf("framed payload %q read back as %q, ok=%v", raw, got, ok)
		}
		torn := framed[:int(cut)%len(framed)]
		if _, ok := parseEntry(torn); ok {
			t.Fatalf("torn entry %q accepted", torn)
		}
		bit := int(flip) % (8 * len(framed))
		flipped := append([]byte(nil), framed...)
		flipped[bit/8] ^= 1 << (bit % 8)
		if _, ok := parseEntry(flipped); ok {
			t.Fatalf("entry with bit %d flipped accepted", bit)
		}
	})
}
