package experiments

import "testing"

func TestFaultCampaignSmoke(t *testing.T) {
	r, err := FaultCampaign(&Args{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if f := r.Failures(); f != 0 {
		t.Fatalf("%d campaign runs failed", f)
	}
}

// TestFaultCampaignRunsTheOracle checks that the campaign's oracle is on:
// every tester run checks translations, whatever the instrument says.
func TestFaultCampaignRunsTheOracle(t *testing.T) {
	r, err := FaultCampaign(&Args{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for _, run := range r.Runs {
		if run.Workload == "tester" && run.OracleUseChecks == 0 {
			t.Errorf("%s tester run: the oracle checked no translation use", run.Scenario)
		}
	}
}
