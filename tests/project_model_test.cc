// Unit tests for src/analysis/project_model.h — the shared whole-project
// source model behind tools/sketchml_analyze. The fixture-driven
// analysis_test.cc pins the passes end to end; these tests pin the model
// itself: include extraction, the heuristic function scanner (scopes,
// owners, definition-vs-declaration), call-site indexing, and literal
// attachment.

#include "analysis/project_model.h"

#include <string>

#include "analysis/stripped_source.h"
#include "gtest/gtest.h"

namespace {

using sketchml::analysis::AddFileToModel;
using sketchml::analysis::FunctionDef;
using sketchml::analysis::ProjectModel;
using sketchml::analysis::StripToCode;

void AddFile(ProjectModel* model, const std::string& rel,
             const std::string& text) {
  AddFileToModel(StripToCode(rel, text), model);
}

const FunctionDef* FindFn(const ProjectModel& model, const std::string& name) {
  const auto it = model.functions_by_name.find(name);
  if (it == model.functions_by_name.end() || it->second.empty()) {
    return nullptr;
  }
  return &model.functions[it->second.front()];
}

TEST(ProjectModelTest, ExtractsQuotedIncludesWithLines) {
  ProjectModel model;
  AddFile(&model, "src/core/a.cc",
          "#include \"common/util.h\"\n"
          "#include <vector>\n"
          "  #include \"core/a.h\"\n");
  ASSERT_EQ(model.files.size(), 1u);
  const auto& pf = model.files[0];
  ASSERT_EQ(pf.includes.size(), 2u);  // Angle includes are not project edges.
  EXPECT_EQ(pf.includes[0], "common/util.h");
  EXPECT_EQ(pf.include_lines[0], 1u);
  EXPECT_EQ(pf.includes[1], "core/a.h");
  EXPECT_EQ(pf.include_lines[1], 3u);
}

TEST(ProjectModelTest, IndexesFreeFunctionsMethodsAndOwners) {
  ProjectModel model;
  AddFile(&model, "src/core/b.cc",
          "namespace outer {\n"
          "\n"
          "int Free(int n) { return n; }\n"
          "\n"
          "class Widget {\n"
          " public:\n"
          "  void Inline() { count_ = 0; }\n"
          "  void Declared(int x);\n"
          "};\n"
          "\n"
          "void Widget::Declared(int x) { count_ = x; }\n"
          "\n"
          "}  // namespace outer\n");
  const FunctionDef* free_fn = FindFn(model, "Free");
  ASSERT_NE(free_fn, nullptr);
  EXPECT_EQ(free_fn->qualified, "outer::Free");
  EXPECT_EQ(free_fn->owner, "");

  const FunctionDef* inline_fn = FindFn(model, "Inline");
  ASSERT_NE(inline_fn, nullptr);
  EXPECT_EQ(inline_fn->qualified, "outer::Widget::Inline");
  EXPECT_EQ(inline_fn->owner, "Widget");

  // `void Declared(int x);` inside the class is a declaration; only the
  // out-of-class definition is indexed — exactly once, with the
  // qualifier as owner.
  const auto it = model.functions_by_name.find("Declared");
  ASSERT_NE(it, model.functions_by_name.end());
  ASSERT_EQ(it->second.size(), 1u);
  const FunctionDef& declared = model.functions[it->second.front()];
  EXPECT_EQ(declared.owner, "Widget");
  EXPECT_EQ(declared.line, 11u);

  const auto methods = model.MethodsOf("Widget");
  EXPECT_EQ(methods.size(), 2u);
}

TEST(ProjectModelTest, RecordsCallSitesNotKeywords) {
  ProjectModel model;
  AddFile(&model, "src/core/c.cc",
          "void Caller() {\n"
          "  if (Check(1)) {\n"
          "    ns::Helper(2);\n"
          "  }\n"
          "  while (false) return;\n"
          "}\n");
  const FunctionDef* caller = FindFn(model, "Caller");
  ASSERT_NE(caller, nullptr);
  ASSERT_EQ(caller->calls.size(), 2u);
  EXPECT_EQ(caller->calls[0].name, "Check");
  EXPECT_EQ(caller->calls[0].line, 2u);
  EXPECT_EQ(caller->calls[1].name, "Helper");
  EXPECT_EQ(caller->calls[1].qualified, "ns::Helper");
}

TEST(ProjectModelTest, BodyRangeAndLiteralAttachment) {
  ProjectModel model;
  AddFile(&model, "src/core/d.cc",
          "int Outside() { return 0; }\n"
          "\n"
          "void Emit() {\n"
          "  Register(\"trainer/step\");\n"
          "}\n");
  const FunctionDef* emit = FindFn(model, "Emit");
  ASSERT_NE(emit, nullptr);
  EXPECT_EQ(emit->body_begin, 3u);
  EXPECT_EQ(emit->body_end, 5u);
  ASSERT_EQ(emit->literals.size(), 1u);
  EXPECT_EQ(emit->literals[0].first, "trainer/step");
  EXPECT_EQ(emit->literals[0].second, 4u);
  // The literal belongs to Emit, not to the earlier function.
  const FunctionDef* outside = FindFn(model, "Outside");
  ASSERT_NE(outside, nullptr);
  EXPECT_TRUE(outside->literals.empty());
}

TEST(ProjectModelTest, ConstructorInitializerListIsADefinition) {
  ProjectModel model;
  AddFile(&model, "src/core/e.cc",
          "class Gauge {\n"
          " public:\n"
          "  Gauge(int v) : value_(v), scaled_{v * 2} { Init(); }\n"
          "};\n");
  const FunctionDef* ctor = FindFn(model, "Gauge");
  ASSERT_NE(ctor, nullptr);
  EXPECT_EQ(ctor->owner, "Gauge");
  ASSERT_EQ(ctor->calls.size(), 1u);
  EXPECT_EQ(ctor->calls[0].name, "Init");
}

TEST(ProjectModelTest, PreprocessorDirectivesDoNotSkewScopes) {
  ProjectModel model;
  AddFile(&model, "src/core/f.h",
          "#ifndef GUARD_H_\n"
          "#define GUARD_H_\n"
          "#define OPEN_BRACE {\n"
          "\n"
          "inline int After() { return 1; }\n"
          "\n"
          "#endif  // GUARD_H_\n");
  // The unbalanced brace inside the macro must not swallow After().
  const FunctionDef* after = FindFn(model, "After");
  ASSERT_NE(after, nullptr);
  EXPECT_EQ(after->body_begin, 5u);
}

TEST(ProjectModelTest, FileIndexAcrossMultipleFiles) {
  ProjectModel model;
  AddFile(&model, "src/core/g.h", "inline int G() { return 1; }\n");
  AddFile(&model, "src/core/h.cc", "int H() { return 2; }\n");
  EXPECT_EQ(model.FileIndex("src/core/g.h"), 0);
  EXPECT_EQ(model.FileIndex("src/core/h.cc"), 1);
  EXPECT_EQ(model.FileIndex("src/core/missing.cc"), -1);
  const FunctionDef* h = FindFn(model, "H");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->file, 1);
}

}  // namespace
