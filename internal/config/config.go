// Package config loads simulation configurations from JSON, including
// user-defined network topologies — the paper's "users can set up any
// bandwidth value of the links" and asymmetric-network capability, exposed
// declaratively for the CLI.
//
// RunSpec and ServeSpec are the only mappings from options to core.Config
// and core.ServeConfig: triosim's flags, -config files and triosimd
// requests all fill a spec and call its ToCore.
//
// Example:
//
//	{
//	  "model": "resnet50",
//	  "platform": "P2",
//	  "parallelism": "ddp",
//	  "trace_batch": 128,
//	  "topology": {
//	    "kind": "switch",
//	    "num_gpus": 4,
//	    "link_bandwidth_gbps": 235,
//	    "link_latency_us": 1.2,
//	    "host_bandwidth_gbps": 20,
//	    "overrides": [{"link": 0, "bandwidth_gbps": 60}]
//	  }
//	}
package config

import (
	"encoding/json"
	"fmt"
	"os"

	"triosim/internal/core"
	"triosim/internal/gpu"
	"triosim/internal/network"
	"triosim/internal/serving"
	"triosim/internal/sim"
)

// LinkSpec adds one custom link to a topology.
type LinkSpec struct {
	A             int     `json:"a"`
	B             int     `json:"b"`
	BandwidthGBps float64 `json:"bandwidth_gbps"`
	LatencyUS     float64 `json:"latency_us"`
}

// Override changes one built link's bandwidth (asymmetric what-ifs).
type Override struct {
	Link          int     `json:"link"`
	BandwidthGBps float64 `json:"bandwidth_gbps"`
}

// TopologySpec declares an interconnect.
type TopologySpec struct {
	// Kind: ring, switch, pcie-tree, mesh, double-ring, chord-ring, or a
	// hierarchical cluster kind — rail-fat-tree, dragonfly, torus3d — which
	// uses the machines/gpus_per_machine and tiered-bandwidth fields below.
	Kind    string `json:"kind"`
	NumGPUs int    `json:"num_gpus"`
	// Rows/Cols apply to mesh.
	Rows              int        `json:"rows,omitempty"`
	Cols              int        `json:"cols,omitempty"`
	LinkBandwidthGBps float64    `json:"link_bandwidth_gbps"`
	LinkLatencyUS     float64    `json:"link_latency_us"`
	HostBandwidthGBps float64    `json:"host_bandwidth_gbps"`
	HostLatencyUS     float64    `json:"host_latency_us"`
	ExtraLinks        []LinkSpec `json:"extra_links,omitempty"`
	Overrides         []Override `json:"overrides,omitempty"`

	// Hierarchical cluster parameters (rail-fat-tree, dragonfly, torus3d).
	Machines       int `json:"machines,omitempty"`
	GPUsPerMachine int `json:"gpus_per_machine,omitempty"`
	// NVLinkGBps is the intra-machine tier bandwidth; LinkBandwidthGBps
	// doubles as the NIC tier and FabricGBps as the switch fabric (defaults
	// to the NIC rate when zero).
	NVLinkGBps float64 `json:"nvlink_gbps,omitempty"`
	FabricGBps float64 `json:"fabric_gbps,omitempty"`
	// LeafWidth/Spines shape the rail fat-tree; GroupSize shapes the
	// dragonfly; X/Y/Z shape the 3D torus.
	LeafWidth int `json:"leaf_width,omitempty"`
	Spines    int `json:"spines,omitempty"`
	GroupSize int `json:"group_size,omitempty"`
	X         int `json:"x,omitempty"`
	Y         int `json:"y,omitempty"`
	Z         int `json:"z,omitempty"`
}

// buildCluster materializes one of the hierarchical cluster kinds.
func (t *TopologySpec) buildCluster() (*network.Topology, error) {
	cc := network.ClusterConfig{
		Machines:        t.Machines,
		GPUsPerMachine:  t.GPUsPerMachine,
		NVLinkBandwidth: t.NVLinkGBps * 1e9,
		NVLinkLatency:   sim.VTime(t.LinkLatencyUS) * sim.USec,
		NICBandwidth:    t.LinkBandwidthGBps * 1e9,
		NICLatency:      sim.VTime(t.LinkLatencyUS) * sim.USec,
		FabricBandwidth: t.FabricGBps * 1e9,
		FabricLatency:   sim.VTime(t.LinkLatencyUS) * sim.USec,
		HostBandwidth:   t.HostBandwidthGBps * 1e9,
		HostLatency:     sim.VTime(t.HostLatencyUS) * sim.USec,
	}
	if t.GPUsPerMachine < 1 {
		return nil, fmt.Errorf("config: %s needs gpus_per_machine", t.Kind)
	}
	switch t.Kind {
	case "rail-fat-tree":
		if t.Machines < 1 {
			return nil, fmt.Errorf("config: rail-fat-tree needs machines")
		}
		leaf, spines := t.LeafWidth, t.Spines
		if leaf < 1 {
			leaf = 8
		}
		if spines < 1 {
			spines = 2
		}
		return network.RailFatTree(cc, leaf, spines), nil
	case "dragonfly":
		if t.Machines < 1 {
			return nil, fmt.Errorf("config: dragonfly needs machines")
		}
		gs := t.GroupSize
		if gs < 1 {
			gs = 4
		}
		return network.Dragonfly(cc, gs), nil
	case "torus3d":
		if t.X < 1 || t.Y < 1 || t.Z < 1 {
			return nil, fmt.Errorf("config: torus3d needs x, y, z")
		}
		return network.Torus3D(cc, t.X, t.Y, t.Z), nil
	}
	return nil, fmt.Errorf("config: unknown cluster kind %q", t.Kind)
}

// Build materializes the topology.
func (t *TopologySpec) Build() (*network.Topology, error) {
	cfg := network.Config{
		NumGPUs:       t.NumGPUs,
		LinkBandwidth: t.LinkBandwidthGBps * 1e9,
		LinkLatency:   sim.VTime(t.LinkLatencyUS) * sim.USec,
		HostBandwidth: t.HostBandwidthGBps * 1e9,
		HostLatency:   sim.VTime(t.HostLatencyUS) * sim.USec,
	}
	if cfg.LinkBandwidth <= 0 || cfg.HostBandwidth <= 0 {
		return nil, fmt.Errorf("config: topology needs positive bandwidths")
	}
	switch t.Kind {
	case "rail-fat-tree", "dragonfly", "torus3d":
		return t.buildCluster()
	}
	var topo *network.Topology
	switch t.Kind {
	case "ring":
		topo = network.Ring(cfg)
	case "switch":
		topo = network.Switch(cfg)
	case "pcie-tree":
		topo = network.PCIeTree(cfg)
	case "mesh":
		if t.Rows < 1 || t.Cols < 1 {
			return nil, fmt.Errorf("config: mesh needs rows and cols")
		}
		topo = network.Mesh(t.Rows, t.Cols, cfg)
	case "double-ring":
		topo = network.DoubleRing(cfg)
	case "chord-ring":
		topo = network.RingWithChords(cfg)
	default:
		return nil, fmt.Errorf("config: unknown topology kind %q", t.Kind)
	}
	gpus := topo.GPUs()
	for _, l := range t.ExtraLinks {
		if l.A < 0 || l.A >= len(gpus) || l.B < 0 || l.B >= len(gpus) {
			return nil, fmt.Errorf("config: extra link %d-%d out of range",
				l.A, l.B)
		}
		topo.AddLink(gpus[l.A], gpus[l.B], l.BandwidthGBps*1e9,
			sim.VTime(l.LatencyUS)*sim.USec)
	}
	for _, o := range t.Overrides {
		if o.Link < 0 || o.Link >= len(topo.Links) {
			return nil, fmt.Errorf("config: override link %d out of range",
				o.Link)
		}
		topo.SetLinkBandwidth(o.Link, o.BandwidthGBps*1e9)
	}
	return topo, nil
}

// RunSpec declares one simulation run.
type RunSpec struct {
	Model       string  `json:"model,omitempty"`
	TraceFile   string  `json:"trace_file,omitempty"`
	Platform    string  `json:"platform"`
	Parallelism string  `json:"parallelism"`
	TraceBatch  int     `json:"trace_batch,omitempty"`
	TraceGPU    string  `json:"trace_gpu,omitempty"`
	GlobalBatch int     `json:"global_batch,omitempty"`
	NumGPUs     int     `json:"num_gpus,omitempty"`
	Chunks      int     `json:"chunks,omitempty"`
	Iterations  int     `json:"iterations,omitempty"`
	DPGroups    int     `json:"dp_groups,omitempty"`
	BucketMB    float64 `json:"bucket_mb,omitempty"`
	Collective  string  `json:"collective,omitempty"`
	TPRanks     int     `json:"tp_ranks,omitempty"`
	PPStages    int     `json:"pp_stages,omitempty"`
	FuseCompute bool    `json:"fuse_compute,omitempty"`
	// NetApproxTol is the flow network's reschedule tolerance (0, the
	// default, is exact). See docs/TOPOLOGY.md.
	NetApproxTol float64       `json:"net_approx_tol,omitempty"`
	Topology     *TopologySpec `json:"topology,omitempty"`
}

// Load reads a RunSpec from a JSON file.
func Load(path string) (*RunSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec RunSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("config: %s: %w", path, err)
	}
	return &spec, nil
}

// ToCore converts the spec into a core.Config. It reads no files:
// TraceFile is left for the caller to load into Config.Trace.
func (s *RunSpec) ToCore() (core.Config, error) {
	plat, topo, err := resolve(s.Platform, s.Topology)
	if err != nil {
		return core.Config{}, err
	}
	return core.Config{
		Model:        s.Model,
		Platform:     plat,
		Topology:     topo,
		Parallelism:  core.Parallelism(s.Parallelism),
		TraceBatch:   s.TraceBatch,
		TraceGPU:     s.TraceGPU,
		GlobalBatch:  s.GlobalBatch,
		NumGPUs:      s.NumGPUs,
		MicroBatches: s.Chunks,
		Iterations:   s.Iterations,
		DPGroups:     s.DPGroups,
		BucketBytes:  s.BucketMB * (1 << 20),
		Collective:   s.Collective,
		TPRanks:      s.TPRanks,
		PPStages:     s.PPStages,
		FuseCompute:  s.FuseCompute,
		NetApproxTol: s.NetApproxTol,
	}, nil
}

// ServeSpec declares one request-level serving simulation: the triosim
// -serve-sim flags and the body of a triosimd "serve" request. triosimd
// hashes its JSON form into request digests, so its fields and tags are
// part of the coalescing key.
type ServeSpec struct {
	// Platform is the simulated system (P1, P2, or P3).
	Platform string `json:"platform"`
	// Serving is the workload: model, scheduler, batching, arrivals.
	Serving serving.Config `json:"serving"`
	// Topology optionally overrides the platform's default interconnect.
	Topology *TopologySpec `json:"topology,omitempty"`
}

// ToCore converts the spec into a core.ServeConfig.
func (s *ServeSpec) ToCore() (core.ServeConfig, error) {
	if s.Serving.Model == "" {
		return core.ServeConfig{}, fmt.Errorf(
			"config: serving needs a model (a zoo transformer)")
	}
	plat, topo, err := resolve(s.Platform, s.Topology)
	if err != nil {
		return core.ServeConfig{}, err
	}
	return core.ServeConfig{Serving: s.Serving, Platform: plat,
		Topology: topo}, nil
}

// resolve looks up a platform and builds the optional topology override.
func resolve(platform string, ts *TopologySpec) (*gpu.Platform,
	*network.Topology, error) {
	plat, err := gpu.PlatformByName(platform)
	if err != nil || ts == nil {
		return plat, nil, err
	}
	topo, err := ts.Build()
	return plat, topo, err
}
