package workspace_test

import (
	"reflect"
	"strings"
	"testing"

	"cloudless/internal/workspace"
)

const varsSource = `
variable "n" {
  type    = number
  default = 2
}
variable "label" {
  type    = string
  default = "a"
}
resource "aws_storage_bucket" "b" {
  count = var.n
  name  = "${var.label}-${count.index}"
}
`

// The probe policy reports the policy engine's own view of var.n; the poison
// policy decides a value the expansion must reject.
const varsPolicies = `
policy "probe" {
  phase = "operate"
  when  = metric.probe > 0
  notify { message = "n=${var.n}" }
}
policy "poison" {
  phase = "operate"
  when  = metric.poison > 0
  set_variable {
    name  = "n"
    value = "three"
  }
}
`

// TestRejectedVariableChangesNothing: a value the expansion rejects — set
// directly or decided by a policy — must leave Var, the expansion and the
// policy engine's view as they were, and must not fail later, unrelated
// SetVar calls with its own diagnostic.
func TestRejectedVariableChangesNothing(t *testing.T) {
	for name, poison := range map[string]func(*workspace.Workspace) error{
		"SetVar": func(ws *workspace.Workspace) error { return ws.SetVar("n", "three") },
		"Observe": func(ws *workspace.Workspace) error {
			_, err := ws.Observe(map[string]any{"probe": 0, "poison": 1})
			return err
		},
	} {
		t.Run(name, func(t *testing.T) {
			ws, err := workspace.New(workspace.Config{
				Sources:  map[string]string{"main.ccl": varsSource},
				Cloud:    newSim(),
				Policies: varsPolicies,
			})
			if err != nil {
				t.Fatal(err)
			}
			before := ws.Instances()

			err = poison(ws)
			if err == nil || !strings.Contains(err.Error(), `variable "n"`) {
				t.Fatalf("poisoning call returned %v, want the expansion's diagnostic on n", err)
			}
			if v, _ := ws.Var("n"); v != float64(2) {
				t.Errorf("Var(n) = %v after the rejected value, want 2", v)
			}
			if got := ws.Instances(); !reflect.DeepEqual(got, before) {
				t.Errorf("expansion moved: %v, want %v", got, before)
			}
			decs, err := ws.Observe(map[string]any{"probe": 1, "poison": 0})
			if err != nil || len(decs) != 1 || decs[0].Message != "n=2" {
				t.Errorf("policy engine's view after the rejected value = %+v, %v; want n=2", decs, err)
			}

			// An unrelated variable still sets, and a good value for n too.
			if err := ws.SetVar("label", "z"); err != nil {
				t.Fatalf("unrelated SetVar after the rejected value: %v", err)
			}
			if err := ws.SetVar("n", 3); err != nil {
				t.Fatal(err)
			}
			if got := len(ws.Instances()); got != 3 {
				t.Errorf("%d instances after n=3, want 3", got)
			}
		})
	}
}
