package main

import "sort"

// workloads are the benchmark's input sets, by name. Why each exists is
// recorded in BENCHMARK.json at the repository root.
var workloads = map[string]*workload{
	analyticMC.name:   analyticMC,
	serveMix.name:     serveMix,
	serveHeavy.name:   serveHeavy,
	remoteFanout.name: remoteFanout,
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
