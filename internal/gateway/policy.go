package gateway

import (
	"fmt"

	"clipper/internal/selection"
)

// ParsePolicy maps a policy name to one of the paper's selection policies:
// "" or "exp4", "exp3", or "static:<index>". Any other name is an error.
func ParsePolicy(name string) (selection.Policy, error) {
	switch {
	case name == "" || name == "exp4":
		return selection.NewExp4(0), nil
	case name == "exp3":
		return selection.NewExp3(0), nil
	case len(name) > 7 && name[:7] == "static:":
		var idx int
		if _, err := fmt.Sscanf(name[7:], "%d", &idx); err != nil {
			return nil, fmt.Errorf("bad static policy index %q", name[7:])
		}
		return selection.NewStatic(idx), nil
	default:
		return nil, fmt.Errorf("unknown policy %q", name)
	}
}
