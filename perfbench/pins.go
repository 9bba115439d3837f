package main

// pins holds each workload's deterministic digest for the default seed
// (1) and one held-out seed (2), as printed on the run's "# digest"
// line. A run on a pinned seed, traced or not, fails when its digest
// differs. The digests depend on the workload constants (points, run
// lengths, batch and checkpoint sizes, the serve job mix), so changing
// any of those means re-pinning.
var pins = map[string]map[uint64]string{
	"paper-1k":      {1: "8b876c2e929f6190", 2: "726ab4b16ce46c0a"},
	"shard2-1k":     {1: "88a8a085106cdd04", 2: "5ec93bb8fc16795e"},
	"scale-16k":     {1: "e97e489292e7811f", 2: "c149a58e5b15273f"},
	"serve-durable": {1: "5f55bc2e9fd60568", 2: "62e47faa28b0642c"},
}
