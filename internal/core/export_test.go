package core

import "bgperf/internal/mat"

// ChainBlocks exposes the repeating blocks (A0 up, A1 local, A2 down) of the
// chain m solves, so external tests can hand them to the qbdtest oracles.
func (m *Model) ChainBlocks() (a0, a1, a2 *mat.Matrix, err error) {
	_, proc, err := m.qbdBlocks()
	if err != nil {
		return nil, nil, nil, err
	}
	return proc.A0(), proc.A1(), proc.A2(), nil
}
