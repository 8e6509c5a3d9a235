// ComponentIterator (paper §5).
//
// "Such information is specific to each query and is type and structure
// dependent.  In our design, these tasks are the responsibility of the
// component iterator, a companion routine to the assembly operator."
//
// Given a freshly fetched object and the template node it was assembled
// under, the component iterator decides:
//   * whether the object's type matches the template,
//   * which unresolved references the object contributes (one per template
//     child edge whose reference slot holds a valid OID),
//   * in what priority order same-cost references should be scheduled — by
//     descending rejection probability, so the component most likely to
//     fail its predicate is fetched first (§5 last paragraph).

#ifndef COBRA_ASSEMBLY_COMPONENT_ITERATOR_H_
#define COBRA_ASSEMBLY_COMPONENT_ITERATOR_H_

#include <vector>

#include "assembly/template.h"
#include "common/result.h"
#include "common/status.h"
#include "object/object.h"
#include "object/oid.h"

namespace cobra {

// One unresolved reference discovered inside an object.
struct ComponentRef {
  const TemplateNode* node = nullptr;  // template node of the *child*
  Oid oid = kInvalidOid;
  int ref_slot = 0;     // reference field it came from
  int child_index = 0;  // position in the parent's template children array
};

class ComponentIterator {
 public:
  explicit ComponentIterator(const AssemblyTemplate* tmpl) : template_(tmpl) {}

  // Verifies `obj` against `node` (type check; reference slots in range).
  Status CheckObject(const ObjectData& obj, const TemplateNode* node) const;

  // The references `obj` contributes, ordered by descending rejection
  // probability when `prioritize_predicates` (stable: template order breaks
  // ties).  Reference fields holding kInvalidOid contribute nothing.
  Result<std::vector<ComponentRef>> Expand(const ObjectData& obj,
                                           const TemplateNode* node,
                                           bool prioritize_predicates) const;

  // The expansion Expand wraps: replaces `*out` with the references,
  // reusing its capacity, and sorts in place without a scratch buffer.
  Status ExpandInto(const ObjectData& obj, const TemplateNode* node,
                    bool prioritize_predicates,
                    std::vector<ComponentRef>* out) const;

 private:
  const AssemblyTemplate* template_;
};

}  // namespace cobra

#endif  // COBRA_ASSEMBLY_COMPONENT_ITERATOR_H_
