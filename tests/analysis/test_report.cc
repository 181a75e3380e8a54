/**
 * @file
 * Tests of lint-report rendering (text + JSON) and the warnings
 * baseline used to gate CI.
 */

#include <gtest/gtest.h>

#include "analysis/report.h"
#include "analysis/static/static_report.h"

namespace vespera::analysis {
namespace {

Diagnostic
makeDiag(const char *rule, Severity sev, const char *kernel)
{
    Diagnostic d;
    d.rule = rule;
    d.severity = sev;
    d.kernel = kernel;
    d.instrIndex = 3;
    d.opLabel = "v_add";
    d.message = "test finding";
    d.costCycles = 5;
    d.wastedBytes = 128;
    return d;
}

LintEntry
makeEntry(const char *kernel,
          std::vector<Diagnostic> diags = {})
{
    LintEntry e;
    e.kernel = kernel;
    e.shape = "n=8";
    e.report.kernel = kernel;
    e.report.instructions = 10;
    e.report.cycles = 100;
    for (Diagnostic &d : diags) {
        e.report.rules[d.rule].count++;
        e.report.diagnostics.push_back(std::move(d));
    }
    return e;
}

/** The same finding set as a rendered lint-run entry. */
StaticLintEntry
makeStaticEntry(const char *kernel, std::vector<Diagnostic> diags = {})
{
    LintEntry e = makeEntry(kernel, std::move(diags));
    StaticLintEntry s;
    s.kernel = e.kernel;
    s.shape = e.shape;
    s.report.report = std::move(e.report);
    return s;
}

TEST(Report, JsonRoundTripsThroughParser)
{
    std::vector<StaticLintEntry> entries;
    entries.push_back(makeStaticEntry(
        "k1", {makeDiag(rules::narrowAccess, Severity::Warning, "k1"),
               makeDiag(rules::deadValue, Severity::Info, "k1")}));
    entries.push_back(makeStaticEntry("k2"));

    const std::string doc =
        json::serialize(staticLintReportJson(entries));
    json::Value v;
    std::string error;
    ASSERT_TRUE(json::parse(doc, v, &error)) << error;

    ASSERT_NE(v.find("schema"), nullptr);
    EXPECT_EQ(v.find("schema")->str(), "vespera-lint-static/v1");
    ASSERT_NE(v.find("kernels"), nullptr);
    EXPECT_EQ(v.find("kernels")->array().size(), 2u);
    EXPECT_DOUBLE_EQ(v.findPath("totals.warnings")->number(), 1.0);
    EXPECT_DOUBLE_EQ(v.findPath("totals.infos")->number(), 1.0);
    EXPECT_DOUBLE_EQ(v.findPath("totals.errors")->number(), 0.0);

    const json::Value &kernel = v.find("kernels")->array().front();
    const json::Value *diags = kernel.find("diagnostics");
    ASSERT_NE(diags, nullptr);
    ASSERT_EQ(diags->array().size(), 2u);
    EXPECT_EQ(diags->array()[0].find("rule")->str(),
              rules::narrowAccess);
    EXPECT_DOUBLE_EQ(diags->array()[0].find("wasted_bytes")->number(),
                     128.0);
}

TEST(Report, TextMentionsFindingsAndTotals)
{
    std::vector<StaticLintEntry> entries;
    entries.push_back(makeStaticEntry(
        "softmax",
        {makeDiag(rules::exposedLatency, Severity::Warning,
                  "softmax")}));
    entries.push_back(makeStaticEntry("clean_kernel"));
    const std::string text = staticLintReportText(entries, false);
    EXPECT_NE(text.find("softmax"), std::string::npos);
    EXPECT_NE(text.find(rules::exposedLatency), std::string::npos);
    EXPECT_NE(text.find("OK  clean_kernel"), std::string::npos);
    EXPECT_NE(text.find("1 warnings"), std::string::npos);
}

TEST(Report, BaselineAcceptsItself)
{
    std::vector<LintEntry> entries;
    entries.push_back(makeEntry(
        "k", {makeDiag(rules::narrowAccess, Severity::Warning, "k"),
              makeDiag(rules::narrowAccess, Severity::Warning, "k")}));
    const json::Value baseline = baselineJson(entries);
    const BaselineCheck check =
        checkAgainstBaseline(entries, baseline);
    EXPECT_TRUE(check.ok) << check.failures.front();
}

TEST(Report, BaselineRejectsNewWarnings)
{
    std::vector<LintEntry> old_run;
    old_run.push_back(makeEntry(
        "k", {makeDiag(rules::narrowAccess, Severity::Warning, "k")}));
    const json::Value baseline = baselineJson(old_run);

    std::vector<LintEntry> new_run;
    new_run.push_back(makeEntry(
        "k", {makeDiag(rules::narrowAccess, Severity::Warning, "k"),
              makeDiag(rules::narrowAccess, Severity::Warning, "k")}));
    const BaselineCheck check =
        checkAgainstBaseline(new_run, baseline);
    EXPECT_FALSE(check.ok);
    ASSERT_EQ(check.failures.size(), 1u);
    EXPECT_NE(check.failures.front().find("narrow-access"),
              std::string::npos);
}

TEST(Report, BaselineRejectsUnknownKernel)
{
    const json::Value baseline = baselineJson({});
    std::vector<LintEntry> run;
    run.push_back(makeEntry(
        "brand_new",
        {makeDiag(rules::deadValue, Severity::Warning, "brand_new")}));
    EXPECT_FALSE(checkAgainstBaseline(run, baseline).ok);
}

TEST(Report, ErrorsAreNeverBaselined)
{
    std::vector<LintEntry> run;
    run.push_back(makeEntry(
        "k", {makeDiag(rules::invalidSsa, Severity::Error, "k")}));
    // Even a baseline generated from this very run fails it: errors
    // must be fixed, not ratcheted.
    const BaselineCheck check =
        checkAgainstBaseline(run, baselineJson(run));
    EXPECT_FALSE(check.ok);
}

TEST(Report, FewerWarningsThanBaselinePasses)
{
    std::vector<LintEntry> old_run;
    old_run.push_back(makeEntry(
        "k", {makeDiag(rules::narrowAccess, Severity::Warning, "k"),
              makeDiag(rules::narrowAccess, Severity::Warning, "k")}));
    const json::Value baseline = baselineJson(old_run);
    std::vector<LintEntry> improved;
    improved.push_back(makeEntry(
        "k", {makeDiag(rules::narrowAccess, Severity::Warning, "k")}));
    EXPECT_TRUE(checkAgainstBaseline(improved, baseline).ok);
}

} // namespace
} // namespace vespera::analysis
