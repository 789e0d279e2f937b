// Nosleep demonstrates the energy-bug pipeline the paper's introduction
// motivates: a buggy resident app acquires a wakelock it never releases
// (a "no-sleep bug", refs [3,6,11]), gradually and imperceptibly
// draining the battery. We run the paper's light workload with one such
// app injected, watch the standby projection collapse, and let the
// WakeScope-style detector name the culprit from the same WakeLock-hook
// trace the paper's instrumentation produced.
package main

import (
	"fmt"
	"log"

	"repro"
	"repro/internal/anomaly"
)

func main() {
	buggy := repro.AppSpec{
		Name:       "LeakyFlashlight",
		Period:     600 * repro.Second,
		Alpha:      0.75,
		HW:         repro.Table3()[0].HW, // wakelocks the Wi-Fi
		TaskDur:    2 * repro.Second,
		NoSleepBug: true,
	}

	healthy, err := repro.Run(repro.Config{Workload: repro.LightWorkload(), Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	sick, err := repro.Run(repro.Config{
		Workload:     append(repro.LightWorkload(), buggy),
		Seed:         1,
		CollectTrace: true,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("3 h connected standby, light workload:")
	fmt.Printf("  healthy:        %7.0f J, projected standby %6.1f h\n",
		healthy.Energy.TotalMJ()/1000, healthy.StandbyHours)
	fmt.Printf("  + no-sleep bug: %7.0f J, projected standby %6.1f h\n",
		sick.Energy.TotalMJ()/1000, sick.StandbyHours)
	fmt.Printf("  the bug costs %.1f× the healthy standby energy\n\n",
		sick.Energy.TotalMJ()/healthy.Energy.TotalMJ())

	findings := anomaly.Analyze(sick.Trace.Events(), repro.Time(sick.Config.Duration))
	fmt.Printf("detector findings (%d):\n", len(findings))
	for _, f := range findings {
		fmt.Printf("  %s\n", f)
	}
	if len(findings) > 0 {
		fmt.Printf("\nthe culprit, %q, is the first suspect of the top finding.\n",
			findings[0].Suspects[0])
	}
}
