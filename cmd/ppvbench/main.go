// Command ppvbench regenerates the tables and figures of the paper's
// evaluation section (Sect. 6) from the experiment drivers in
// internal/experiments. Each -exp value corresponds to one row of the
// experiment index in README.md; "all" runs the full suite.
//
// Usage:
//
//	ppvbench -exp fig6 -scale small
//	ppvbench -exp all  -scale tiny
//
// The serving benchmark is the separate bench/ module (BENCHMARK.json).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"fastppv/internal/experiments"
)

// experimentNames in presentation order.
var experimentNames = []string{
	"fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12",
	"fig13", "fig14", "fig15", "fig16", "thm2", "ablation",
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("ppvbench: ")

	var (
		exp      = flag.String("exp", "all", "experiment to run: "+strings.Join(experimentNames, ", ")+" or all")
		scaleStr = flag.String("scale", "small", "dataset scale: tiny, small or medium")
	)
	flag.Parse()

	scale, err := experiments.ParseScale(*scaleStr)
	if err != nil {
		log.Fatal(err)
	}

	selected := experimentNames
	if *exp != "all" {
		selected = strings.Split(*exp, ",")
	}
	for _, name := range selected {
		start := time.Now()
		if err := run(strings.TrimSpace(name), scale); err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		fmt.Fprintf(os.Stderr, "[%s completed in %v]\n\n", name, time.Since(start).Round(time.Millisecond))
	}
}

// run executes one named experiment and prints its table(s).
func run(name string, scale experiments.Scale) error {
	switch name {
	case "fig5", "fig6", "fig7":
		results, err := experiments.AccuracyModerated(scale)
		if err != nil {
			return err
		}
		if name != "fig7" {
			fmt.Println(experiments.Fig6Table(results))
		}
		if name != "fig6" {
			fmt.Println(experiments.Fig7Table(results))
		}
	case "fig8", "fig9":
		results, err := experiments.HubPolicies(scale, true)
		if err != nil {
			return err
		}
		if name == "fig8" {
			fmt.Println(experiments.Fig8Table(results))
		} else {
			fmt.Println(experiments.Fig9Table(results))
		}
	case "fig10", "fig11":
		points, err := experiments.HubCountSweep(scale)
		if err != nil {
			return err
		}
		if name == "fig10" {
			fmt.Println(experiments.Fig10Table(points))
		} else {
			fmt.Println(experiments.Fig11Table(points))
		}
	case "fig12":
		points, err := experiments.IterationSweep(scale, 3)
		if err != nil {
			return err
		}
		fmt.Println(experiments.Fig12Table(points))
	case "fig13":
		points, err := experiments.GrowthSeries(scale)
		if err != nil {
			return err
		}
		fmt.Println(experiments.Fig13Table(points))
	case "fig14", "fig15":
		points, err := experiments.Scalability(scale)
		if err != nil {
			return err
		}
		if name == "fig14" {
			fmt.Println(experiments.Fig14Table(points))
		} else {
			fmt.Println(experiments.Fig15Table(points))
		}
	case "fig16":
		points, err := experiments.DiskBased(scale, nil)
		if err != nil {
			return err
		}
		fmt.Println(experiments.Fig16Table(points))
	case "thm2":
		points, err := experiments.Theorem2(scale, 8)
		if err != nil {
			return err
		}
		fmt.Println(experiments.Theorem2Table(points))
	case "ablation":
		results, err := experiments.Ablations(scale)
		if err != nil {
			return err
		}
		fmt.Println(experiments.AblationTable(results))
	default:
		return fmt.Errorf("unknown experiment %q (want one of %s)", name, strings.Join(experimentNames, ", "))
	}
	return nil
}
