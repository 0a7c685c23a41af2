package main

import (
	"reflect"
	"testing"
	"time"

	"nashlb/internal/fleet"
	"nashlb/internal/serve"
)

// TestFlagsGiveBothModesOneGatewayConfig: the gateway flags build one
// serve.GatewayConfig, and fleet mode runs its gateway with it. The four
// flags fleet mode once dropped (-poll, -update-every, -alpha and
// -max-idle-per-host) reach it, and the defaults stay the same.
func TestFlagsGiveBothModesOneGatewayConfig(t *testing.T) {
	gameFlags := []string{"-backends", "http://a:1/,http://b:2", "-rates", "50,10", "-arrivals", "2x12"}
	fleetFlags := []string{"-fleet", "-fleet-id", "1", "-fleet-peers", "http://g0:9090,http://g1:9090/"}
	tuned := []string{"-poll", "2s", "-update-every", "3", "-alpha", "0.5", "-max-idle-per-host", "64"}

	defaults := serve.GatewayConfig{
		Backends: []string{"http://a:1", "http://b:2"}, Rates: []float64{50, 10}, Arrivals: []float64{12, 12},
		Seed: 2002, UpdateEvery: 1, Alpha: 0.2, Timeout: 5 * time.Second, Retries: 2,
		ProbeEvery: 250 * time.Millisecond, Breaker: serve.BreakerConfig{Failures: 3, Cooldown: time.Second},
		RampSteps: 3, DegradedRho: 0.9, RetryBudget: 0.1, Addr: "127.0.0.1:0",
	}
	withTuned := defaults
	withTuned.PollEvery, withTuned.UpdateEvery, withTuned.Alpha, withTuned.MaxIdleConnsPerHost = 2*time.Second, 3, 0.5, 64

	for _, c := range []struct {
		extra []string
		want  serve.GatewayConfig
	}{{nil, defaults}, {tuned, withTuned}} {
		gw, err := parseFlags(append(append([]string(nil), gameFlags...), c.extra...))
		if err != nil {
			t.Fatal(err)
		}
		if gw.node != nil || gw.backend != nil || !reflect.DeepEqual(gw.gateway, c.want) {
			t.Fatalf("gateway mode %v: got %+v, want %+v", c.extra, gw.gateway, c.want)
		}
		fl, err := parseFlags(append(append(append([]string(nil), gameFlags...), fleetFlags...), c.extra...))
		if err != nil {
			t.Fatal(err)
		}
		if fl.node == nil || !reflect.DeepEqual(fl.node.Gateway, gw.gateway) {
			t.Fatalf("fleet mode %v: gateway template %+v, want gateway mode's %+v", c.extra, fl.node, gw.gateway)
		}
		wantMachines := []fleet.Machine{{URL: "http://a:1", Rate: 50, Active: true}, {URL: "http://b:2", Rate: 10, Active: true}}
		if fl.node.ID != 1 || !reflect.DeepEqual(fl.node.Machines, wantMachines) ||
			!reflect.DeepEqual(fl.node.Arrivals, c.want.Arrivals) || fl.node.Seed != 2002 ||
			!reflect.DeepEqual(fl.peers, []string{"http://g0:9090", "http://g1:9090"}) {
			t.Fatalf("fleet mode %v: node %+v, peers %v", c.extra, fl.node, fl.peers)
		}
	}

	be, err := parseFlags([]string{"-backend", "-rate", "50", "-listen", "127.0.0.1:8081", "-seed", "7"})
	if err != nil {
		t.Fatal(err)
	}
	want := serve.BackendConfig{Rate: 50, QueueCap: serve.DefaultQueueCap, Seed: 7, Addr: "127.0.0.1:8081"}
	if be.backend == nil || *be.backend != want {
		t.Fatalf("backend mode: got %+v, want %+v", be.backend, want)
	}
	for _, bad := range [][]string{
		{"-backend"},
		{"-rates", "50"},
		append(append([]string(nil), gameFlags...), "-fleet"),
		{"-backends", "http://a:1", "-rates", "50,10", "-arrivals", "1"},
	} {
		if _, err := parseFlags(bad); err == nil {
			t.Errorf("parseFlags(%q) accepted an incomplete command line", bad)
		}
	}
}
