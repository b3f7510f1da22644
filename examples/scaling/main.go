// Scaling: reproduce Figure 2 (basic costs of TLB shootdown) with a quick
// sweep, fit the paper's trend line, and extrapolate to the 100-processor
// machines the paper's conclusion contemplates — then actually build a
// 64-processor simulated machine and measure, which the authors could not.
package main

import (
	"fmt"
	"log"
	"strings"

	"shootdown/internal/experiments"
	"shootdown/internal/workload"
)

func main() {
	fmt.Println("sweeping shootdowns of 1..15 processors (3 runs each)...")
	fig2, err := experiments.Fig2(7, 3)
	if err != nil {
		log.Fatal(err)
	}

	// A tiny ASCII rendition of Figure 2.
	maxUS := fig2.Points[len(fig2.Points)-1].MeanUS
	for _, p := range fig2.Points {
		bar := int(40 * p.MeanUS / maxUS)
		fmt.Printf("%2d processors %5.0f µs %s\n", p.Processors, p.MeanUS, strings.Repeat("#", bar))
	}
	fmt.Printf("\ntrend line (1..%d): %.0f + %.1f*n µs   (paper: 430 + 55*n)\n",
		fig2.FitMaxK, fig2.Fit.Intercept, fig2.Fit.Slope)
	fmt.Printf("extrapolated cost at 100 processors: %.1f ms   (paper's warning: ~6 ms)\n\n",
		fig2.At100US/1000)

	fmt.Println("measuring an actual 64-processor simulated machine (63 processors shot at)...")
	res, err := workload.RunTester(workload.TesterConfig{
		Children: 63, App: workload.AppConfig{NCPUs: 64, Seed: 7, NoTimer: true},
	})
	if err != nil {
		log.Fatal(err)
	}
	trend := fig2.Fit.At(63)
	fmt.Printf("measured: %.0f µs; linear trend predicts %.0f µs (%.2fx — the shared bus congests,\n",
		res.ShootUS, trend, res.ShootUS/trend)
	fmt.Println("which is why §8 proposes restructuring kernels into processor pools on NUMA machines)")
}
