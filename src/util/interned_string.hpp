// InternedString: a process-wide, never-freed string pool for low-
// cardinality provenance strings (project/collector names): each distinct
// value is stored once, and a Record carries a pointer — copying a record
// no longer copies (or allocates) its provenance strings. Pointer
// equality is value equality.
#pragma once

#include <cstddef>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_set>

namespace bgps {

// A pointer into the process-wide provenance-string pool. Implicitly
// converts to const std::string&; interning (the only allocation) happens
// once per distinct value for the process lifetime.
class InternedString {
 public:
  InternedString() : s_(&EmptyString()) {}
  InternedString(std::string_view s) : s_(&Intern(s)) {}
  InternedString(const std::string& s) : s_(&Intern(s)) {}
  InternedString(const char* s) : s_(&Intern(s)) {}

  operator const std::string&() const { return *s_; }
  const std::string& str() const { return *s_; }
  const char* c_str() const { return s_->c_str(); }
  size_t size() const { return s_->size(); }
  bool empty() const { return s_->empty(); }
  auto begin() const { return s_->begin(); }
  auto end() const { return s_->end(); }

  // Pointer equality is value equality: each value is stored once.
  // C++20 synthesizes the reversed and != forms; the exact-match
  // overloads below keep mixed comparisons unambiguous despite the
  // implicit conversions both ways.
  friend bool operator==(const InternedString& a, const InternedString& b) {
    return a.s_ == b.s_;
  }
  friend bool operator==(const InternedString& a, const std::string& b) {
    return *a.s_ == b;
  }
  friend bool operator==(const InternedString& a, const char* b) {
    return *a.s_ == b;
  }
  friend bool operator==(const InternedString& a, std::string_view b) {
    return *a.s_ == b;
  }
  friend bool operator<(const InternedString& a, const InternedString& b) {
    return *a.s_ < *b.s_;
  }

 private:
  struct Hash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>()(s);
    }
    size_t operator()(const std::string& s) const {
      return std::hash<std::string_view>()(s);
    }
  };

  static const std::string& EmptyString() {
    static const std::string empty;
    return empty;
  }

  static const std::string& Intern(std::string_view s) {
    if (s.empty()) return EmptyString();
    // Node-based set: element addresses survive rehashing. Entries are
    // never erased (provenance names are low-cardinality).
    static std::mutex mu;
    static std::unordered_set<std::string, Hash, std::equal_to<>> pool;
    std::lock_guard<std::mutex> lock(mu);
    auto it = pool.find(s);
    if (it == pool.end()) it = pool.emplace(s).first;
    return *it;
  }

  const std::string* s_;
};

}  // namespace bgps

template <>
struct std::hash<bgps::InternedString> {
  size_t operator()(bgps::InternedString s) const {
    return std::hash<const std::string*>()(&s.str());
  }
};
