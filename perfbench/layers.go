package main

import "strings"

// The layer ledger: every CPU profile sample is charged to one layer,
// and cpu.<layer> is that layer's share of all sampled CPU time.
//
// A sample is charged to rt_gc when any frame of its stack is inside the
// collector (background mark workers, mark assists, sweeping): that time
// is caused by allocation anywhere, not by the function it interrupted.
// Every other sample is charged by its leaf frame, so the shares are
// self time. The leaf's package decides the layer through layerTable;
// the Go runtime is split so that map work (rt_map) and allocation
// (rt_alloc) show on their own.

// layers lists every layer in the order the ledger reports them.
var layers = []string{
	"fleet", "experiments", "vtime", "netsim", "stack", "arp", "ipv4",
	"encap", "mobileip", "routeopt", "sock", "tcplite", "metrics",
	"mob4x4_other", "rand", "crypto", "sync",
	"rt_map", "rt_alloc", "rt_gc", "rt_other", "other",
}

// layerTable maps a package import path to its layer. Repository
// packages missing here fall into mob4x4_other, standard-library
// packages into other. sync is split out because the sharded engine's
// cross-shard locks land there.
var layerTable = map[string]string{
	"mob4x4/internal/fleet":       "fleet",
	"mob4x4/internal/experiments": "experiments",
	"mob4x4/internal/vtime":       "vtime",
	"mob4x4/internal/netsim":      "netsim",
	"mob4x4/internal/stack":       "stack",
	"mob4x4/internal/arp":         "arp",
	"mob4x4/internal/ipv4":        "ipv4",
	"mob4x4/internal/encap":       "encap",
	"mob4x4/internal/mobileip":    "mobileip",
	"mob4x4/internal/routeopt":    "routeopt",
	"mob4x4/internal/sock":        "sock",
	"mob4x4/internal/tcplite":     "tcplite",
	"mob4x4/internal/metrics":     "metrics",
	"math/rand":                   "rand",
	"math/rand/v2":                "rand",
	"internal/runtime/maps":       "rt_map",
	"sync":                        "sync",
	"sync/atomic":                 "sync",
	"internal/sync":               "sync",
}

// gcEntries are the runtime functions under which collector work runs.
var gcEntries = []string{
	"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.gcStart",
	"runtime.gcMarkDone", "runtime.gcMarkTermination", "runtime.bgsweep",
	"runtime.bgscavenge", "runtime.sweepone", "runtime.markroot",
}

// runtimeMap and runtimeAlloc are function-name prefixes inside package
// runtime charged to rt_map and rt_alloc.
var (
	runtimeMap = []string{
		"runtime.map", "runtime.evacuate", "runtime.growWork",
		"runtime.memhash", "runtime.strhash", "runtime.aeshash",
	}
	runtimeAlloc = []string{
		"runtime.mallocgc", "runtime.newobject", "runtime.makeslice",
		"runtime.growslice", "runtime.nextFreeFast", "runtime.heapSetType",
		"runtime.(*mcache)", "runtime.(*mcentral)", "runtime.(*mheap)",
		"runtime.(*mspan)", "runtime.memclrNoHeapPointers",
	}
)

// layerOfStack returns the layer a sample is charged to; frames are
// function names, leaf first.
func layerOfStack(frames []string) string {
	if len(frames) == 0 {
		return "other"
	}
	for _, fn := range frames {
		if hasAnyPrefix(fn, gcEntries) {
			return "rt_gc"
		}
	}
	return layerOfFunc(frames[0])
}

// layerOfFunc returns the layer of a leaf function.
func layerOfFunc(fn string) string {
	pkg := packageOf(fn)
	if l, ok := layerTable[pkg]; ok {
		return l
	}
	switch {
	case pkg == "runtime" && hasAnyPrefix(fn, runtimeMap):
		return "rt_map"
	case pkg == "runtime" && hasAnyPrefix(fn, runtimeAlloc):
		return "rt_alloc"
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "rt_other"
	case pkg == "crypto" || strings.HasPrefix(pkg, "crypto/"):
		return "crypto"
	case strings.HasPrefix(pkg, "mob4x4/"):
		return "mob4x4_other"
	}
	return "other"
}

// packageOf extracts the import path from a symbol name such as
// "mob4x4/internal/netsim.(*Segment).deliver" or
// "slices.SortFunc[go.shape.int]". Type arguments may themselves hold
// paths, so they are cut first.
func packageOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	dir := ""
	if i := strings.LastIndexByte(fn, '/'); i >= 0 {
		dir, fn = fn[:i+1], fn[i+1:]
	}
	if i := strings.IndexByte(fn, '.'); i >= 0 {
		fn = fn[:i]
	}
	return dir + fn
}

func hasAnyPrefix(s string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}
