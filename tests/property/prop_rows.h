/**
 * @file
 * Register a property on only the rows of a parameterized sweep it
 * applies to.
 *
 * INSTANTIATE_TEST_SUITE_P runs every TEST_P of a fixture on every row,
 * so a property that holds on some rows only would have to GTEST_SKIP
 * the rest. registerRows registers it on the rows where `applies`
 * holds, under the names the instantiation gives the fixture's other
 * properties ("<suite>.<property>/<n>", with the row printed as the
 * test's value, so ctest lists "<suite>.<property>/<row>"). Nothing
 * is instantiated only to be skipped.
 */

#ifndef VESPERA_TESTS_PROPERTY_PROP_ROWS_H
#define VESPERA_TESTS_PROPERTY_PROP_ROWS_H

#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace vespera::prop {

/**
 * Register `body(fixture, row)` as test `property` of `suite` (the
 * instantiated name, e.g. "Sweep/CollectiveProperty") for every row
 * of `rows` that satisfies `applies`. Call at namespace scope, e.g.
 * `const bool registered = registerRows<Fixture>(...);`.
 */
template <class Fixture, class Param, class Applies, class Body>
bool
registerRows(const char *suite, const char *property,
             const std::vector<Param> &rows, Applies applies, Body body)
{
    class Row : public Fixture
    {
      public:
        Row(Param p, Body b) : p_(std::move(p)), body_(std::move(b)) {}
        void TestBody() override { body_(*this, p_); }

      private:
        Param p_;
        Body body_;
    };
    int n = 0;
    for (const Param &p : rows) {
        if (!applies(p))
            continue;
        const std::string name =
            std::string(property) + "/" + std::to_string(n++);
        // The factory returns Fixture* so the row shares the fixture
        // class of the suite's TEST_P properties, as gtest requires.
        ::testing::RegisterTest(
            suite, name.c_str(), nullptr,
            ::testing::PrintToString(p).c_str(), __FILE__, __LINE__,
            [p, body]() -> Fixture * { return new Row(p, body); });
    }
    return true;
}

} // namespace vespera::prop

#endif // VESPERA_TESTS_PROPERTY_PROP_ROWS_H
