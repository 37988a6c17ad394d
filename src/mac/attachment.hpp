// The cell-attachment decision rule CellularWorld applies to each user's
// filtered pilots.
#pragma once

#include <span>

namespace charisma::mac {

/// Among stations whose filtered pilot exceeds the *attached* station's
/// pilot by more than `hysteresis_db`, returns the strongest; returns
/// `attached` when none qualifies. Every challenger is measured against the
/// attached pilot — measuring challengers against the running maximum (the
/// historical bug) let a weaker station scanned earlier raise the bar and
/// block the strongest one, so the handoff target was scan-order dependent
/// and not the strongest eligible pilot.
///
/// Takes a span so CellularWorld's flat users×cells pilot plane can pass
/// one user's row without copying it into a vector per decision.
int strongest_with_hysteresis(std::span<const double> pilot_db, int attached,
                              double hysteresis_db);

}  // namespace charisma::mac
