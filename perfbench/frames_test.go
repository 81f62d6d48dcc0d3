package main

import (
	"testing"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/ids"
	"repro/internal/transport"
)

// TestEveryFrameHasAFamily builds a peer with every optional subsystem
// on, and fails when the peer serves a message type that no frame
// family covers, or when a family covers a type nothing serves.
func TestEveryFrameHasAFamily(t *testing.T) {
	mem := transport.NewMem()
	d := transport.NewDispatcher()
	ep := mem.Endpoint("peer", d.Serve)
	p, err := core.OpenPeer(ids.HashString("peer"), ep, d, core.Config{
		ReplicationFactor: 3,
		ResultCache:       8,
		PrefixCache:       8,
		HotKeyThreshold:   1,
		Strategy:          core.StrategyQDI,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	baseline.NewService(p.GlobalIndex(), d)

	for m := 0; m < 256; m++ {
		served, fam := d.Handles(uint8(m)), familyOf[m]
		switch {
		case served && fam == famUnknown:
			t.Errorf("message type 0x%02x is served but has no frame family", m)
		case !served && fam != famUnknown:
			t.Errorf("frame family %s covers message type 0x%02x, which nothing serves", fam, m)
		}
	}
}
