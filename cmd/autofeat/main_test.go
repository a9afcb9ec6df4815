package main

import (
	"strings"
	"testing"
)

// TestZeroBudgetKeepsDefault checks that -budget-joins 0, the flag's
// default, keeps DefaultConfig's join budget of 3000 and that a positive
// value replaces it.
func TestZeroBudgetKeepsDefault(t *testing.T) {
	if got := (runOpts{}).config().MaxEvalJoins; got != 3000 {
		t.Fatalf("-budget-joins 0: MaxEvalJoins = %d, want the default 3000", got)
	}
	if got := (runOpts{budgetJoins: 7}).config().MaxEvalJoins; got != 7 {
		t.Fatalf("-budget-joins 7: MaxEvalJoins = %d", got)
	}
}

// TestServeFlagsByRole checks that `autofeat serve` refuses, before it
// opens or listens on anything, every flag its role does not read,
// naming the flag and the role; that it accepts each role's own flags;
// that a worker needs -coordinator; and that a heartbeat timeout under
// two heartbeat periods (4s) is refused.
func TestServeFlagsByRole(t *testing.T) {
	single := []string{}
	worker := []string{"-role", "worker", "-coordinator", "http://localhost:8080"}
	coordinator := []string{"-role", "coordinator"}
	const (
		singleRole      = "a single node (no -role)"
		workerRole      = "-role worker"
		coordinatorRole = "-role coordinator"
	)
	for _, tc := range []struct {
		name string
		base []string
		args []string
		want string // substring of the error; "" = accepted
	}{
		{"single node reads its flags", single, []string{"-addr", "localhost:0", "-jobs", "2", "-queue", "4", "-job-timeout", "1m", "-drain-timeout", "5s", "-pprof=false", "-log-level", "warn", "-log-format", "json", "-trace-store", "8", "-flight", "8", "-lake", "a=dir"}, ""},
		{"worker reads its flags", worker, []string{"-jobs", "2", "-queue", "4", "-job-timeout", "1m", "-node-id", "worker-a", "-advertise", "http://10.0.0.2:8081", "-lake", "a=dir"}, ""},
		{"coordinator reads its flags", coordinator, []string{"-store", "jobs.json", "-heartbeat-timeout", "4s", "-tenant-quota", "2", "-store-retain", "10", "-drain-timeout", "5s", "-lake", "a=dir"}, ""},

		{"single node -store", single, []string{"-store", "jobs.json"}, "-store is not read by " + singleRole},
		{"single node -heartbeat-timeout", single, []string{"-heartbeat-timeout", "20s"}, "-heartbeat-timeout is not read by " + singleRole},
		{"single node -tenant-quota", single, []string{"-tenant-quota", "2"}, "-tenant-quota is not read by " + singleRole},
		{"single node -store-retain", single, []string{"-store-retain", "10"}, "-store-retain is not read by " + singleRole},
		{"single node -node-id", single, []string{"-node-id", "worker-a"}, "-node-id is not read by " + singleRole},
		{"single node -advertise", single, []string{"-advertise", "http://x"}, "-advertise is not read by " + singleRole},
		{"single node -coordinator", single, []string{"-coordinator", "http://x"}, "-coordinator is not read by " + singleRole},

		{"worker -store", worker, []string{"-store", "replica.json"}, "-store is not read by " + workerRole},
		{"worker -heartbeat-timeout", worker, []string{"-heartbeat-timeout", "20s"}, "-heartbeat-timeout is not read by " + workerRole},
		{"worker -tenant-quota", worker, []string{"-tenant-quota", "2"}, "-tenant-quota is not read by " + workerRole},
		{"worker -store-retain", worker, []string{"-store-retain", "10"}, "-store-retain is not read by " + workerRole},

		{"coordinator -jobs", coordinator, []string{"-jobs", "2"}, "-jobs is not read by " + coordinatorRole},
		{"coordinator -queue", coordinator, []string{"-queue", "4"}, "-queue is not read by " + coordinatorRole},
		{"coordinator -job-timeout", coordinator, []string{"-job-timeout", "1m"}, "-job-timeout is not read by " + coordinatorRole},
		{"coordinator -node-id", coordinator, []string{"-node-id", "worker-a"}, "-node-id is not read by " + coordinatorRole},
		{"coordinator -advertise", coordinator, []string{"-advertise", "http://x"}, "-advertise is not read by " + coordinatorRole},
		{"coordinator -coordinator", coordinator, []string{"-coordinator", "http://x"}, "-coordinator is not read by " + coordinatorRole},
		{"coordinator names every unread flag", coordinator, []string{"-jobs", "2", "-queue", "4"}, "-jobs, -queue are not read by " + coordinatorRole},

		{"worker without -coordinator", []string{"-role", "worker"}, nil, "-role worker needs -coordinator"},
		{"heartbeat timeout under two periods", coordinator, []string{"-heartbeat-timeout", "3999ms"}, "-heartbeat-timeout 3.999s is shorter than two heartbeat periods (4s)"},
		{"unknown role", []string{"-role", "observer"}, nil, `bad -role "observer"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			args := append(append([]string(nil), tc.base...), tc.args...)
			_, err := parseServe(args)
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("parseServe(%q): %v, want accepted", args, err)
			case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
				t.Fatalf("parseServe(%q): error %v, want one containing %q", args, err, tc.want)
			}
		})
	}
}
