package launcher

import "sort"

// MachinePoolNames lists the machine names Launch holds a pool for,
// sorted (tests only).
func MachinePoolNames() []string {
	machineModels.Lock()
	defer machineModels.Unlock()
	names := make([]string, 0, len(machineModels.byName))
	for name := range machineModels.byName {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
