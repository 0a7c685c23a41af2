// Command experiments regenerates the paper's evaluation artifacts — Table
// 1 and Figures 2-6 — plus the DESIGN.md ablations ABL1-ABL6 and extensions
// EXT1-EXT12. Results print as aligned text tables; -csv writes one CSV per
// artifact into a directory and -plot adds ASCII charts for the figures.
// EXT8-EXT10 and EXT12 serve real HTTP traffic through the nashgate gateway
// (EXT10 and EXT12 through a whole gateway fleet) and so take their live
// windows in wall-clock time; -benchjson additionally writes their results
// in machine-readable form (BENCH_serve.json). The command exits 1, after
// writing its output, when an EXT12 cell reports a safety-audit violation.
//
// Usage:
//
//	experiments -run all                # everything, analytic mode
//	experiments -run fig4 -sim          # Figure 4 with DES replications
//	experiments -run fig2,fig3 -plot    # a subset, with charts
//	experiments -run all -sim -quick    # reduced simulation fidelity
//	experiments -csv out/               # also write CSV series
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"

	"nashlb/internal/experiments"
	"nashlb/internal/report"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("experiments: ")
	var (
		runFlag     = flag.String("run", "all", "comma list of artifacts: tab1,fig2,fig3,fig4,fig5,fig6,abl1..abl6,ext1..ext12 or all")
		simFlag     = flag.Bool("sim", false, "use discrete-event simulation for fig4/fig5/fig6 (slower, adds CIs)")
		quickFlag   = flag.Bool("quick", false, "reduced simulation fidelity (short runs, 3 replications)")
		csvFlag     = flag.String("csv", "", "directory to write CSV files into (created if missing)")
		plotFlag    = flag.Bool("plot", false, "also render ASCII charts for fig2/fig3/fig4/fig6")
		utilFlag    = flag.Float64("util", 0.6, "system utilization for fig2/fig5/fig6 and the ablations")
		seedFlag    = flag.Uint64("seed", 2002, "random seed for simulated runs")
		workersFlag = flag.Int("workers", 0, "replication-engine pool size (0 = GOMAXPROCS); results are identical for any value")
		benchFlag   = flag.String("benchjson", "", "file to write the machine-readable EXT8/EXT9/EXT10/EXT12 results into (implies live serving)")
		coreFlag    = flag.String("benchcore", "", "file to write the machine-readable EXT11 scaling sweep into (implies ext11)")
	)
	flag.Parse()

	params := experiments.PaperSim()
	if *quickFlag {
		params = experiments.QuickSim()
	}
	params.Seed = *seedFlag
	params.Workers = *workersFlag

	want := map[string]bool{}
	for _, name := range strings.Split(*runFlag, ",") {
		want[strings.ToLower(strings.TrimSpace(name))] = true
	}
	all := want["all"]
	selected := func(name string) bool { return all || want[name] }

	ran := 0 // artifacts emitted
	emit := func(name string, t *report.Table) {
		ran++
		fmt.Println(t.String())
		if *csvFlag != "" {
			if err := os.MkdirAll(*csvFlag, 0o755); err != nil {
				log.Fatal(err)
			}
			path := filepath.Join(*csvFlag, name+".csv")
			if err := os.WriteFile(path, []byte(t.CSV()), 0o644); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  [csv written to %s]\n\n", path)
		}
	}

	if selected("tab1") {
		emit("table1", experiments.Table1())
	}
	if selected("fig2") {
		res, err := experiments.Fig2(*utilFlag, 1e-6)
		if err != nil {
			log.Fatalf("fig2: %v", err)
		}
		emit("fig2_norm_vs_iteration", res.Table())
		plotIf(*plotFlag, res)
	}
	if selected("fig3") {
		res, err := experiments.Fig3(*utilFlag, 1e-4)
		if err != nil {
			log.Fatalf("fig3: %v", err)
		}
		emit("fig3_iterations_vs_users", res.Table())
		plotIf(*plotFlag, res)
	}
	if selected("fig4") {
		res, err := experiments.Fig4(params, *simFlag)
		if err != nil {
			log.Fatalf("fig4: %v", err)
		}
		emit("fig4_utilization_sweep", res.Table())
		plotIf(*plotFlag, res)
	}
	if selected("fig5") {
		res, err := experiments.Fig5(*utilFlag, params, *simFlag)
		if err != nil {
			log.Fatalf("fig5: %v", err)
		}
		emit("fig5_per_user", res.Table())
	}
	if selected("fig6") {
		res, err := experiments.Fig6(*utilFlag, nil, params, *simFlag)
		if err != nil {
			log.Fatalf("fig6: %v", err)
		}
		emit("fig6_heterogeneity", res.Table())
		plotIf(*plotFlag, res)
	}
	if selected("abl1") {
		res, err := experiments.Abl1(*utilFlag)
		if err != nil {
			log.Fatalf("abl1: %v", err)
		}
		emit("abl1_initialization", res.Table())
	}
	if selected("abl2") {
		res, err := experiments.Abl2(*utilFlag)
		if err != nil {
			log.Fatalf("abl2: %v", err)
		}
		emit("abl2_wardrop_solvers", res.Table())
	}
	if selected("abl3") {
		res, err := experiments.Abl3()
		if err != nil {
			log.Fatalf("abl3: %v", err)
		}
		emit("abl3_gos_assignment", res.Table())
	}
	if selected("abl4") {
		res, err := experiments.Abl4(*utilFlag)
		if err != nil {
			log.Fatalf("abl4: %v", err)
		}
		emit("abl4_execution_modes", res.Table())
	}
	if selected("abl5") {
		res, err := experiments.Abl5(*utilFlag, params.Seed)
		if err != nil {
			log.Fatalf("abl5: %v", err)
		}
		emit("abl5_rate_estimation", res.Table())
	}
	if selected("abl6") {
		res, err := experiments.Abl6(*utilFlag)
		if err != nil {
			log.Fatalf("abl6: %v", err)
		}
		emit("abl6_update_order", res.Table())
	}
	if selected("ext1") {
		res, err := experiments.Ext1()
		if err != nil {
			log.Fatalf("ext1: %v", err)
		}
		emit("ext1_price_of_anarchy", res.Table())
	}
	if selected("ext2") {
		res, err := experiments.Ext2(*utilFlag, params)
		if err != nil {
			log.Fatalf("ext2: %v", err)
		}
		emit("ext2_burstiness", res.Table())
	}
	if selected("ext3") {
		res, err := experiments.Ext3(*utilFlag, params)
		if err != nil {
			log.Fatalf("ext3: %v", err)
		}
		emit("ext3_service_variability", res.Table())
	}
	if selected("ext4") {
		res, err := experiments.Ext4(*utilFlag)
		if err != nil {
			log.Fatalf("ext4: %v", err)
		}
		emit("ext4_scalability", res.Table())
	}
	if selected("ext5") {
		res, err := experiments.Ext5(*utilFlag, 2400, params.Seed)
		if err != nil {
			log.Fatalf("ext5: %v", err)
		}
		emit("ext5_online_rebalancing", res.Table())
	}
	if selected("ext6") {
		res, err := experiments.Ext6(*utilFlag, params)
		if err != nil {
			log.Fatalf("ext6: %v", err)
		}
		emit("ext6_static_vs_dynamic", res.Table())
	}
	if selected("ext7") {
		res, err := experiments.Ext7(*utilFlag, params.Seed, *quickFlag)
		if err != nil {
			log.Fatalf("ext7: %v", err)
		}
		emit("ext7_fault_tolerance", res.Table())
	}
	// The serving experiments share the BENCH_serve.json document:
	// -benchjson implies all of them and writes the combined result.
	var ext8Res *experiments.Ext8Result
	var ext9Res *experiments.Ext9Result
	var ext10Res *experiments.Ext10Result
	var ext12Res *experiments.Ext12Result
	if selected("ext8") || *benchFlag != "" {
		res, err := experiments.Ext8(params.Seed, *quickFlag)
		if err != nil {
			log.Fatalf("ext8: %v", err)
		}
		emit("ext8_live_serving", res.Table())
		ext8Res = res
	}
	if selected("ext9") || *benchFlag != "" {
		res, err := experiments.Ext9(params.Seed, *quickFlag)
		if err != nil {
			log.Fatalf("ext9: %v", err)
		}
		emit("ext9_self_healing", res.Table())
		ext9Res = res
	}
	if selected("ext10") || *benchFlag != "" {
		res, err := experiments.Ext10(params.Seed, *quickFlag)
		if err != nil {
			log.Fatalf("ext10: %v", err)
		}
		emit("ext10_fleet", res.Table())
		ext10Res = res
	}
	if selected("ext12") || *benchFlag != "" {
		res, err := experiments.Ext12(params.Seed, *quickFlag)
		if err != nil {
			log.Fatalf("ext12: %v", err)
		}
		emit("ext12_partition", res.Table())
		ext12Res = res
	}
	if selected("ext11") || *coreFlag != "" {
		res, err := experiments.Ext11(*quickFlag)
		if err != nil {
			log.Fatalf("ext11: %v", err)
		}
		emit("ext11_megascale", res.Table())
		if *coreFlag != "" {
			data, err := res.BenchJSON()
			if err != nil {
				log.Fatalf("benchcore: %v", err)
			}
			if err := os.WriteFile(*coreFlag, append(data, '\n'), 0o644); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  [ext11 bench json written to %s]\n\n", *coreFlag)
		}
	}
	if *benchFlag != "" {
		data, err := experiments.ServeBenchJSON(ext8Res, ext9Res, ext10Res, ext12Res)
		if err != nil {
			log.Fatalf("benchjson: %v", err)
		}
		if err := os.WriteFile(*benchFlag, append(data, '\n'), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  [bench json written to %s]\n\n", *benchFlag)
	}
	// A safety violation fails the run, once its output is written.
	if ext12Res != nil {
		for _, row := range ext12Res.Rows {
			if row.AuditViolations > 0 {
				log.Fatalf("ext12: %s: %d audit violations", row.Scenario, row.AuditViolations)
			}
		}
	}
	if ran == 0 {
		log.Fatalf("-run: nothing matched %q", *runFlag)
	}
}

// plotter is any experiment result with an ASCII chart.
type plotter interface {
	Plot() (string, error)
}

// plotIf renders r's chart when enabled.
func plotIf(enabled bool, r plotter) {
	if !enabled {
		return
	}
	out, err := r.Plot()
	if err != nil {
		log.Fatalf("plot: %v", err)
	}
	fmt.Println(out)
}
