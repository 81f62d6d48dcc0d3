package main

// Frame families: which layer owns each message type. The benchmark
// attributes every call and every served request to one family, so a
// layer's traffic and handle time can be read apart from the others.
// frames_test.go fails when a peer registers a type that no range
// below covers, so a new frame cannot land silently in "unknown".

type family uint8

const (
	famUnknown family = iota
	famDHT
	famGIRead
	famGIWrite
	famGIKeyInfo
	famGIAdmin
	famBaseline
	famReplication
	famQDI
	famRanking
	famL5
	numFamilies
)

var familyNames = [numFamilies]string{
	famUnknown:     "unknown",
	famDHT:         "dht",
	famGIRead:      "globalindex.read",
	famGIWrite:     "globalindex.write",
	famGIKeyInfo:   "globalindex.keyinfo",
	famGIAdmin:     "globalindex.admin",
	famBaseline:    "baseline",
	famReplication: "replication",
	famQDI:         "qdi",
	famRanking:     "ranking",
	famL5:          "core.l5",
}

func (f family) String() string { return familyNames[f] }

// frameRanges maps inclusive message-type ranges to families.
var frameRanges = []struct {
	lo, hi uint8
	fam    family
}{
	{0x01, 0x06, famDHT},         // ping, next hop, state, notify, finger, set successor
	{0x10, 0x11, famGIWrite},     // put, append
	{0x12, 0x12, famGIRead},      // get
	{0x13, 0x13, famGIWrite},     // remove
	{0x14, 0x14, famGIAdmin},     // peer stats
	{0x15, 0x15, famGIKeyInfo},   // key info
	{0x16, 0x17, famGIWrite},     // multi put, multi append
	{0x18, 0x18, famGIRead},      // multi get
	{0x19, 0x19, famGIKeyInfo},   // multi key info
	{0x1A, 0x1A, famBaseline},    // single-term intersect
	{0x1B, 0x1E, famGIRead},      // multi get any, top-k open, get more, top-k any
	{0x1F, 0x1F, famGIWrite},     // soft-replica announce
	{0x20, 0x26, famReplication}, // write-through, pulls, sync, manifest, fetch
	{0x27, 0x27, famGIRead},      // soft-replica get
	{0x30, 0x30, famQDI},         // on-demand activation
	{0x40, 0x41, famRanking},     // global stats update, query
	{0x50, 0x52, famL5},          // doc info, forward query, fetch doc
}

var familyOf = func() (t [256]family) {
	for _, r := range frameRanges {
		for m := int(r.lo); m <= int(r.hi); m++ {
			t[m] = r.fam
		}
	}
	return t
}()
