// CSV import/export for point sets — the interchange format of the CLI
// tool and the easiest way to feed external data into the library.
//
// Format: one point per line, coordinates separated by commas (optional
// spaces tolerated). No header. All rows must have the same width.
#pragma once

#include <iosfwd>
#include <string>

#include "geometry/point_set.hpp"

namespace mpte {

/// Parses CSV text into a point set; throws MpteError, naming the line,
/// on ragged rows, unparsable numbers or non-finite values (nan, inf).
/// Empty lines are skipped.
PointSet read_csv_points(std::istream& in);

/// Reads a CSV file; throws MpteError if the file cannot be opened.
PointSet read_csv_points_file(const std::string& path);

/// Writes points as CSV with full round-trip precision.
void write_csv_points(const PointSet& points, std::ostream& out);

/// Writes a CSV file; throws MpteError on I/O failure.
void write_csv_points_file(const PointSet& points, const std::string& path);

}  // namespace mpte
