package scaleout

import (
	"testing"

	"nmppak/internal/dna"
	"nmppak/internal/kmer"
	"nmppak/internal/topo"
)

// TestConfigDigestGolden pins configDigest for the default 4-node config,
// for one variant of each settable nmp.Config field, changed alone, and
// for each partitioner's identity, in each form a Config may hold it, and
// for each routed topology, named as its built network names it. Every
// blob ever written carries this digest, so a field printed in the wrong
// slot, or a value dropped from the text, orphans them; the golden blobs
// cover only the default NMP config, the hash partitioner and the full
// mesh.
func TestConfigDigestGolden(t *testing.T) {
	// A fixed small sample for a balanced table.
	sample := &kmer.Result{K: 32}
	for i := uint64(1); i <= 64; i++ {
		sample.Kmers = append(sample.Kmers, kmer.Counted{Km: dna.Kmer(i * 0x9e3779b97f4a7c15), Count: uint32(i)})
	}
	bal := NewBalancedPartitioner(sample, 12, 4)
	part := func(p Partitioner) func(*Config) { return func(c *Config) { c.Partitioner = p } }
	net := func(tc topo.Config) func(*Config) { return func(c *Config) { c.Topo = tc } }
	for _, tc := range []struct {
		name string
		edit func(*Config)
		want uint64
	}{
		{"default", func(*Config) {}, 0x4d212dccf45097ca},
		{"PEsPerChannel", func(c *Config) { c.NMP.PEsPerChannel = 16 }, 0xb88722e8dbbc40b4},
		{"BridgeBytesPerCy", func(c *Config) { c.NMP.BridgeBytesPerCy /= 4 }, 0x73d71df056e89d84},
		{"PELoadQueueDepth", func(c *Config) { c.NMP.PELoadQueueDepth = 1 }, 0xdeafdc6256d0caab},
		{"P3QueueDepth", func(c *Config) { c.NMP.P3QueueDepth = 1 }, 0x57a9829e7ec63b7d},
		{"IdealPE", func(c *Config) { c.NMP.IdealPE = true }, 0x294bf9284f257d07},
		{"ForwardingHitRate", func(c *Config) { c.NMP.ForwardingHitRate = 0.8 }, 0x03c8c5187d29d780},
		{"HybridThresholdBytes", func(c *Config) { c.NMP.HybridThresholdBytes = 0 }, 0x3775c6d640f74a15},
		{"StaticMapping", func(c *Config) { c.NMP.StaticMapping = true }, 0x0732db2a12c8946f},
		{"HashPartitioner", part(HashPartitioner{}), 0x4d212dccf45097ca},
		{"MinimizerPartitioner", part(MinimizerPartitioner{M: 12}), 0xe415eaa3515abeb3},
		{"*MinimizerPartitioner", part(&MinimizerPartitioner{M: 12}), 0xe415eaa3515abeb3},
		{"BalancedPartitioner", part(bal), 0x8a3bb7110c5105a7},
		{"*BalancedPartitioner", part(&bal), 0x8a3bb7110c5105a7},
		{"RebalancePartitioner every 1", part(NewRebalancePartitioner(12, 1)), 0x65a752c0720f154a},
		{"RebalancePartitioner every 3", part(NewRebalancePartitioner(12, 3)), 0x81bb7f155e3b62a4},
		{"Torus auto", net(topo.Torus(0, 0)), 0xe772b49f0e0f3d2c},
		{"Torus 2x2", net(topo.Torus(2, 2)), 0xc5f0cb3eeb21b3c8},
		{"Dragonfly auto", net(topo.DragonflyGroups()), 0xf2ab0c61c5ae3ea8},
	} {
		cfg := DefaultConfig(4)
		tc.edit(&cfg)
		nw, err := cfg.Topo.Build(cfg.Nodes)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := configDigest(cfg, nw.Name()); got != tc.want {
			t.Errorf("%s: configDigest = %#016x, want %#016x", tc.name, got, tc.want)
		}
	}
}
