// Fixed-width ASCII table printer. Bench binaries use it to emit the rows of
// each reproduced paper table/figure in a stable, grep-friendly format that
// the README's tables quote directly.
#ifndef SRC_COMMON_TABLE_H_
#define SRC_COMMON_TABLE_H_

#include <string>
#include <vector>

namespace guillotine {

class TextTable {
 public:
  explicit TextTable(std::vector<std::string> headers);

  void AddRow(std::vector<std::string> cells);
  // Convenience: formats doubles with the given precision.
  static std::string Num(double v, int precision = 2);

  // Render with a header rule, e.g.
  //   payload  | port_api_cyc | direct_cyc | overhead
  //   ---------+--------------+------------+---------
  //   64       | 1520         | 310        | 4.9x
  std::string Render() const;
  void Print() const;  // Render() to stdout.

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace guillotine

#endif  // SRC_COMMON_TABLE_H_
