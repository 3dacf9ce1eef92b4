package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"mob4x4/internal/core"
	"mob4x4/internal/pcap"
)

// TestHTTPGridAllCellsComplete: the E16 acceptance — an unmodified
// net/http round trip and a DNS exchange complete over the facade in
// every one of the 16 (Out,In) pairs.
func TestHTTPGridAllCellsComplete(t *testing.T) {
	cells := httpGridCells(1, 8)
	if len(cells) != 16 {
		t.Fatalf("got %d cells", len(cells))
	}
	for _, c := range cells {
		if c.Err != "" {
			t.Errorf("%s/%s: transport error %q", c.Combo.Out, c.Combo.In, c.Err)
		}
		if c.Status != 200 || !c.BodyOK {
			t.Errorf("%s/%s: status=%d bodyOK=%v", c.Combo.Out, c.Combo.In, c.Status, c.BodyOK)
		}
		if !c.DNSOK {
			t.Errorf("%s/%s: DNS exchange failed", c.Combo.Out, c.Combo.In)
		}
		if c.Packets == 0 || len(c.PcapSHA) != 64 {
			t.Errorf("%s/%s: packets=%d sha=%q", c.Combo.Out, c.Combo.In, c.Packets, c.PcapSHA)
		}
		// TCP pins both conversation keys to one address: a requested
		// combination is honored exactly when it doesn't split them —
		// Out-DT demands care-of keys, In != In-DT demands home keys.
		wantHonored := (c.Combo.Out == core.OutDT) == (c.Combo.In == core.InDT)
		if c.Honored != wantHonored {
			t.Errorf("%s/%s: honored=%v (delivered %s/%s), want honored=%v",
				c.Combo.Out, c.Combo.In, c.Honored, c.EffectiveOut, c.EffectiveIn, wantHonored)
		}
	}
}

// TestHTTPGridCaptureDeterminism: the captured bytes are a pure function
// of (seed, cell) — identical SHA-256 per cell across a repeat run and
// across serial vs parallel execution, even though blocking net/http
// goroutines drive the virtual clock.
func TestHTTPGridCaptureDeterminism(t *testing.T) {
	a := httpGridCells(3, 8)
	b := httpGridCells(3, 8)
	for i := range a {
		if a[i].PcapSHA != b[i].PcapSHA {
			t.Errorf("%s/%s: capture hash differs between runs: %s vs %s",
				a[i].Combo.Out, a[i].Combo.In, a[i].PcapSHA, b[i].PcapSHA)
		}
		if a[i] != b[i] {
			t.Errorf("%s/%s: cell differs between runs:\n%+v\n%+v",
				a[i].Combo.Out, a[i].Combo.In, a[i], b[i])
		}
	}
	serialCell := runHTTPGridCell(3, a[5].Combo)
	if serialCell != a[5] {
		t.Errorf("serial cell differs from parallel run:\n%+v\n%+v", serialCell, a[5])
	}
}

// TestHTTPGridCaptureParses: each cell's capture is a valid classic pcap
// whose packet count matches the reported one.
func TestHTTPGridCaptureParses(t *testing.T) {
	dir := t.TempDir()
	SetCaptureDir(dir)
	defer SetCaptureDir("")
	cells := httpGridCells(5, 8)
	n, err := WriteCaptures()
	if err != nil {
		t.Fatalf("WriteCaptures: %v", err)
	}
	if n != 16 {
		t.Fatalf("wrote %d captures, want 16", n)
	}
	for _, c := range cells {
		path := filepath.Join(dir, fmt.Sprintf("httpgrid_%s_%s.pcap", c.Combo.Out, c.Combo.In))
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s/%s: %v", c.Combo.Out, c.Combo.In, err)
		}
		cap, err := pcap.Parse(b)
		if err != nil {
			t.Fatalf("%s/%s: capture does not parse: %v", c.Combo.Out, c.Combo.In, err)
		}
		if len(cap.Packets) != c.Packets {
			t.Errorf("%s/%s: file has %d packets, cell reports %d",
				c.Combo.Out, c.Combo.In, len(cap.Packets), c.Packets)
		}
	}
}

// TestWriteCapturesDisabled: without a directory the registry stays off.
func TestWriteCapturesDisabled(t *testing.T) {
	SetCaptureDir("")
	registerCapture("nope", pcap.NewWriter())
	if n, err := WriteCaptures(); n != 0 || err != nil {
		t.Fatalf("WriteCaptures = %d, %v", n, err)
	}
}
