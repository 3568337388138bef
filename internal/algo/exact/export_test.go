package exact

import "umine/internal/kernel"

// Kept and SetH open the store's internals to the external rows tests.
func (s *Rows) Kept() map[string]*kernel.TailRow { return s.kept }

func (s *Rows) SetH(h int) { s.h = h }
