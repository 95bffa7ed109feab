package scaleout

import (
	"testing"

	"nmppak/internal/nmp"
)

// TestConfigDigestGolden pins configDigest for the default 4-node config
// and for one variant of each settable nmp.Config field, changed alone.
// Every blob ever written carries this digest, so a field printed in the
// wrong slot, or a value dropped from the text, orphans them; the golden
// blobs cover only the default NMP config.
func TestConfigDigestGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		edit func(*nmp.Config)
		want uint64
	}{
		{"default", func(*nmp.Config) {}, 0x4d212dccf45097ca},
		{"Channels", func(c *nmp.Config) { c.Channels = 4 }, 0xbac4f94e924220f6},
		{"PEsPerChannel", func(c *nmp.Config) { c.PEsPerChannel = 16 }, 0xb88722e8dbbc40b4},
		{"DRAM.RowBytes", func(c *nmp.Config) { c.DRAM.RowBytes = 4096 }, 0x80c0e80cf1e72405},
		{"BridgeBytesPerCy", func(c *nmp.Config) { c.BridgeBytesPerCy /= 4 }, 0x73d71df056e89d84},
		{"PELoadQueueDepth", func(c *nmp.Config) { c.PELoadQueueDepth = 1 }, 0xdeafdc6256d0caab},
		{"P3QueueDepth", func(c *nmp.Config) { c.P3QueueDepth = 1 }, 0x57a9829e7ec63b7d},
		{"IdealPE", func(c *nmp.Config) { c.IdealPE = true }, 0x294bf9284f257d07},
		{"ForwardingHitRate", func(c *nmp.Config) { c.ForwardingHitRate = 0.8 }, 0x03c8c5187d29d780},
		{"HybridThresholdBytes", func(c *nmp.Config) { c.HybridThresholdBytes = 0 }, 0x3775c6d640f74a15},
		{"StaticMapping", func(c *nmp.Config) { c.StaticMapping = true }, 0x0732db2a12c8946f},
	} {
		cfg := DefaultConfig(4)
		tc.edit(&cfg.NMP)
		if got := configDigest(cfg, "fullmesh"); got != tc.want {
			t.Errorf("%s: configDigest = %#016x, want %#016x", tc.name, got, tc.want)
		}
	}
}
