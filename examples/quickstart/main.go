// Quickstart: simulate one hour of an LLM inference cluster under
// DynamoLLM and under the static SinglePool baseline, and compare energy,
// latency, and SLO attainment.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"dynamollm"
)

func main() {
	// One virtual hour of the Conversation workload at a weekly peak of
	// 20 req/s (short enough to run in seconds, long enough for the
	// 30-minute scaling epochs to act).
	tr := dynamollm.NewTrace(dynamollm.Conversation, 1, 20, 7)
	short := tr.Window(9*3600, 10*3600) // Monday 09:00-10:00

	repo := dynamollm.NewRepo() // share model profiles between runs

	for _, system := range []string{"singlepool", "dynamollm"} {
		res, err := dynamollm.SimulateWithRepo(short, dynamollm.Config{
			System:  system,
			Servers: 6,
			Seed:    1,
		}, repo)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-11s %6d requests  %7.2f kWh  %4.1f servers  TTFT p99 %6.0f ms  SLO %5.1f%%\n",
			system, res.Requests, res.EnergyKWh, res.AvgServers,
			res.TTFTP99*1000, res.SLOAttainment*100)
	}
}
